// Package simtime stands in for the simulator's clock.
package simtime

// Time is virtual time.
type Time int64
