package main

import "fixture/internal/user"

func main() { _ = user.Run() }
