// Package corpus is the corpus module's facade, as package nda is the
// repository's: an importable package outside internal/, so deadlint
// counts every exported method of a type it aliases as reached.
package corpus

import "corpus/internal/dead"

// Widget exposes dead.Widget's exported methods.
type Widget = dead.Widget
