// Package hotfix is the hotalloc fixture: every flagged allocation
// pattern inside an //hj17:hotpath function, the sanctioned idioms, and
// the unannotated control case.
package hotfix

import "fmt"

// The annotated hot path: every allocation pattern is flagged.
//
//hj17:hotpath
func Hot(vals []int, name, suffix string) int {
	f := func() int { return 1 } // want `closure literal`
	fmt.Println(name)            // want `fmt\.Println`
	m := map[int]int{}           // want `map literal`
	s := []int{1, 2}             // want `slice literal`
	var acc []int
	acc = append(acc, vals...) // want `append to un-preallocated local "acc"`
	buf := make([]byte, 0, 64) // want `make in`
	label := name + suffix     // want `string concatenation`
	bs := []byte(name)         // want `string conversion`
	_, _, _, _, _ = f, m, s, buf, bs
	return len(acc) + len(label)
}

// Panic arguments are exempt: the trap formats, the hot path does not.
//
//hj17:hotpath
func Guard(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative credit %d", n))
	}
}

// The pool-miss idiom is allowed: address of a struct literal.
//
//hj17:hotpath
func PoolMiss(free []*item) *item {
	if len(free) == 0 {
		return &item{}
	}
	return free[len(free)-1]
}

// The scratch-slice idiom is allowed: the local reuses backing storage.
//
//hj17:hotpath
func Scratch(w *world, vals []int) []int {
	out := w.scratch[:0]
	for _, v := range vals {
		out = append(out, v)
	}
	w.scratch = out
	return out
}

// A bound method value allocates its receiver binding; calling the
// method, or passing a func-typed field built at setup time, does not.
//
//hj17:hotpath
func Timers(m *medium) {
	m.after(m.grant)     // want `method value grant`
	m.after((m).grant)   // want `method value grant`
	m.grant()            // a call, not a value
	(m.grant)()          // still a call
	m.after(m.grantCall) // func-typed field: built once
	m.after(fire)        // package-level func: static
}

type medium struct{ grantCall func() }

func (m *medium) grant()          {}
func (m *medium) after(fn func()) { fn() }

func fire() {}

type item struct{ v int }

type world struct{ scratch []int }

// Unannotated functions may allocate freely.
func Cold(name string) []string {
	parts := []string{name + "!"}
	return append(parts, fmt.Sprint(name))
}
