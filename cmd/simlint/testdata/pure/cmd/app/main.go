package main

import "fixture/internal/lite"

func main() { _ = lite.Export() }
