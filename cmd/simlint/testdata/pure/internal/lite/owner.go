package lite

type owners struct{ moves map[int]int }
