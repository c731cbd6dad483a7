package cc

// Scopes is a lexical scope chain kept as one binding stack: Push marks
// where a block's bindings start, Pop drops them, and Lookup searches
// from the innermost binding outwards, so a nested block shadows and a
// popped block's names are gone. Sema resolves every local through
// it, recording the slots the compiler and vet read; the interpreter,
// the compiler's test oracle, keeps its locals in one of its own. One
// stack serves a whole function body, so entering a block allocates
// nothing.
type Scopes[T any] struct {
	binds []binding[T]
	marks []int
}

type binding[T any] struct {
	name string
	val  T
}

// Reset empties the stack, keeping its storage for the next body.
func (s *Scopes[T]) Reset() {
	clear(s.binds)
	s.binds, s.marks = s.binds[:0], s.marks[:0]
}

// Push opens a scope.
func (s *Scopes[T]) Push() { s.marks = append(s.marks, len(s.binds)) }

// Pop closes the innermost scope and drops its bindings.
func (s *Scopes[T]) Pop() {
	n := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	clear(s.binds[n:])
	s.binds = s.binds[:n]
}

// Declare binds name in the innermost scope and reports whether the
// name was new to that scope. A repeated name still binds: the newer
// binding shadows the older one until the scope is popped.
func (s *Scopes[T]) Declare(name string, v T) bool {
	fresh := true
	for _, b := range s.binds[s.marks[len(s.marks)-1]:] {
		if b.name == name {
			fresh = false
			break
		}
	}
	s.binds = append(s.binds, binding[T]{name, v})
	return fresh
}

// Lookup returns the innermost binding of name. The pointer stays
// valid until the next Declare or Pop.
func (s *Scopes[T]) Lookup(name string) (*T, bool) {
	for i := len(s.binds) - 1; i >= 0; i-- {
		if s.binds[i].name == name {
			return &s.binds[i].val, true
		}
	}
	return nil, false
}
