// Package deadcode is a biooperalint golden fixture: a function that no
// main, init or package-level initializer reaches is reported. Reaching it
// as a value, through a module interface, as a live type's String method,
// or from a function kept by an allow makes it live.
package deadcode

import "fmt"

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached only through the shape interface.
func (s square) area() float64 { return s.side * s.side }

// label is live — init prints one — so fmt may call its String.
type label string

func (l label) String() string { return "label " + string(l) }

// ghost is never made, so its String is dead like any other method.
type ghost int

func (g ghost) String() string { return "boo" } // want `deadcode\.\(ghost\)\.String is unreachable`

var hooks []func()

func init() {
	var s shape = square{side: 2}
	fmt.Println(s.area(), label("x"))
	hooks = append(hooks, viaValue)
	live()
}

// viaValue is never called, only stored: a reference is an edge.
func viaValue() {}

func unreached() { unreachedToo() } // want `deadcode\.unreached is unreachable`

func unreachedToo() {} // want `deadcode\.unreachedToo is unreachable`

// reference is reported, and its allow suppresses that; the allow also
// keeps what it calls.
//
//bioopera:allow deadcode the golden test compares against this reference
func reference() int { return helper() }

// helper is reached only from the allowed reference.
func helper() int { return 2 }

// live is called by init, so the allow beside it has nothing to suppress.
// wantbelow `stale suppression: no deadcode diagnostic here`
func live() {} //bioopera:allow deadcode init calls it
