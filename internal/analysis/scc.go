package analysis

import "slices"

// sccs returns the strongly connected components of the directed graph
// reachable from roots, in dependency-first order: every successor of a
// node sits in the node's own component or in an earlier one, so callees
// and imports come before their callers. Roots are tried in order and each
// node's successors in the order succ returns them, so the result is
// deterministic whenever those orders are. A component lists its members
// in the order the walk first reached them.
//
// This is Tarjan's algorithm on an explicit stack: the call graph has
// chains deeper than recursion should be trusted with.
func sccs[T comparable](roots []T, succ func(T) []T) [][]T {
	type frame struct {
		n    T
		succ []T
		i    int
	}
	index := map[T]int{} // visit number of every node reached
	var low []int        // by visit number: lowest visit number reachable
	var onStack []bool   // by visit number
	var stack []T
	var frames []frame
	var out [][]T
	visit := func(n T) {
		index[n] = len(low)
		low = append(low, len(low))
		onStack = append(onStack, true)
		stack = append(stack, n)
		frames = append(frames, frame{n: n, succ: succ(n)})
	}
	for _, root := range roots {
		if _, ok := index[root]; ok {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n, vn := f.n, index[f.n]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if vw, ok := index[w]; !ok {
					visit(w)
				} else if onStack[vw] {
					low[vn] = min(low[vn], vw)
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if low[vn] == vn {
				i := len(stack) - 1
				for stack[i] != n {
					i--
				}
				comp := slices.Clone(stack[i:])
				for _, w := range comp {
					onStack[index[w]] = false
				}
				stack = stack[:i]
				out = append(out, comp)
			}
			if len(frames) > 0 {
				vp := index[frames[len(frames)-1].n]
				low[vp] = min(low[vp], low[vn])
			}
		}
	}
	return out
}

// cyclic reports whether a component of sccs is a cycle: more than one
// member, or a single member that is its own successor.
func cyclic[T comparable](comp []T, succ func(T) []T) bool {
	return len(comp) > 1 || slices.Contains(succ(comp[0]), comp[0])
}
