// Fixture: a field name one struct declares as a map and another as a slice
// is decided by the struct the selector's base is declared as.
package core

type weights struct {
	Vals map[string]float64
}

type group struct {
	Vals []string
}

type relation struct {
	Groups  []group
	Weights []weights
}

// Flatten ranges the slice-typed Vals of groups. No finding.
func Flatten(groups []group) []string {
	var out []string
	for _, g := range groups {
		for _, v := range g.Vals {
			out = append(out, v)
		}
	}
	return out
}

// Names ranges the map-typed Vals of a parameter. want: finding.
func Names(w *weights) []string {
	var out []string
	for k := range w.Vals {
		out = append(out, k)
	}
	return out
}

// Nested reaches both through fields of a known struct: the slice-typed Vals
// passes, the map-typed one is a finding.
func Nested(r relation) []string {
	var out []string
	for _, g := range r.Groups {
		for _, v := range g.Vals {
			out = append(out, v)
		}
	}
	for _, w := range r.Weights {
		for k := range w.Vals {
			out = append(out, k)
		}
	}
	return out
}

// Opaque ranges Vals off a base the source does not type: the bare name is
// declared both ways, so it says nothing. No finding.
func Opaque() []string {
	var out []string
	x := mystery()
	for _, v := range x.Vals {
		out = append(out, v)
	}
	return out
}

func mystery() group { return group{} }
