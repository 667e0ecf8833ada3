package main

import "fixture/internal/core"

func main() { core.BenchOnly() }
