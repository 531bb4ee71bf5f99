// Command bench stands in for the repository's bench/ module: a nested
// module that imports the corpus, so what it references is reached.
package main

import (
	"fmt"

	"corpus/internal/dead"
)

func main() { fmt.Println(dead.BenchOnly()) }
