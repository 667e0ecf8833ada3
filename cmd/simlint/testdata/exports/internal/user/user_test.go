package user

import (
	"testing"

	"fixture/internal/core"
	"fixture/internal/support"
)

func TestOther(t *testing.T) {
	core.OtherTestOnly()
	_ = core.Inspect()
	support.Helper()
}
