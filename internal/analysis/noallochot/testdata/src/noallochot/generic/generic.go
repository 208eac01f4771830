// Package generic seeds noallochot's blind spot: a generic body is
// compiled only where it is instantiated, so a //nomad:noalloc generic
// declaration that its own package never instantiates has no compiler
// output to check and must be reported as unchecked.
package generic

// sum is marked and instantiated below: checked, and clean.
//
//nomad:noalloc
func sum[T int | float64](s []T) T {
	var t T
	for _, v := range s {
		t += v
	}
	return t
}

// scale is marked but nothing in the package instantiates it.
//
//nomad:noalloc
func scale[T int | float64](s []T, c T) { // want `//nomad:noalloc generic function scale is never instantiated in its package`
	for i := range s {
		s[i] *= c
	}
}

// box is a generic type whose marked methods are checked only through
// an instantiation of the type.
type box[T any] struct{ v []T }

// put is marked on a type the package never instantiates.
//
//nomad:noalloc
func (b *box[T]) put(i int, v T) { // want `//nomad:noalloc generic function put is never instantiated in its package`
	b.v[i] = v
}

// bag is a generic type instantiated below, so its marked method is
// compiled and checked.
type bag[T any] struct{ v []T }

// get is marked and compiled through bag[int].
//
//nomad:noalloc
func (b *bag[T]) get(i int) T { return b.v[i] }

var (
	_ = sum[float64]
	_ = (*bag[int]).get
)
