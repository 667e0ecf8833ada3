package core

import "testing"

func TestOwn(t *testing.T) { OwnTestOnly() }
