// Package user calls core the way the stack does.
package user

import (
	"errors"

	"fixture/internal/core"
)

// Run uses core.
func Run() error {
	core.Used()
	_ = core.InspectTheStackCalls()
	_ = core.Pair{1, 2}
	c := &core.Client{Name: "c"}
	_ = call(c)
	var err error = &core.Err{}
	if errors.Is(err, core.ErrBase) {
		return err
	}
	return nil
}

func call[C interface {
	Call([]byte) ([]byte, error)
}](c C) error {
	_, err := c.Call(nil)
	return err
}
