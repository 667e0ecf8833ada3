// Package clustertest holds what tests of many packages share to build
// a simulated cluster. Only test files import it.
package clustertest

import (
	"lite/internal/cluster"
	"lite/internal/params"
)

// MustNew is cluster.New for tests; it panics on error.
func MustNew(cfg *params.Config, n int, memPerNode int64) *cluster.Cluster {
	c, err := cluster.New(cfg, n, memPerNode)
	if err != nil {
		panic(err)
	}
	return c
}
