// Package core exercises the exported-surface rule. Each BAD marker
// must produce exactly one finding; every other export must stay
// clean.
package core

import "errors"

func Dead() {} // BAD

func OwnTestOnly() {} // BAD

func OtherTestOnly() {} // BAD

func SupportOnly() {} // BAD

func Recursive(n int) int { // BAD
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Used() {}

func BenchOnly() {}

func Paper() {}

func PaperWithoutExample() {} // BAD

func Inspect() int { return 0 }

func InspectTheStackCalls() int { return 0 } // BAD

// Client's Call is reached only through a generic constraint.
type Client struct {
	Name  string
	Spare int // BAD
}

func (c *Client) Call(in []byte) ([]byte, error) { return in, nil }

func (c *Client) Unused() {} // BAD

// Err's Error and Unwrap are reached only through the error interface
// and the errors package.
type Err struct{}

func (*Err) Error() string { return "core: failed" }

func (*Err) Unwrap() error { return ErrBase }

var ErrBase = errors.New("core: base")

// Pair's fields are set only by an unkeyed literal.
type Pair struct {
	A, B int
}

// msg's exported field is there for encoding/json: the members of an
// unexported type are not checked.
type msg struct {
	Body string
}

var _ = msg{}

// Lonely has no user but its own methods.
type Lonely struct{} // BAD

func (Lonely) Method() {} // BAD
