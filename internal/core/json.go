package core

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/agg"
)

// The JSON encoding of a Recommendation is the wire format of the serving
// layer (internal/server). It is deterministic: field order is fixed by the
// encoder structs below, map keys are emitted sorted by encoding/json, and
// the underlying evaluation is itself deterministic — so equal
// recommendations marshal to byte-identical JSON regardless of worker count
// or transport.

type jsonGroupScore struct {
	// Group is the drill-down group's key values in group-by attribute order.
	Group     []string             `json:"group"`
	Predicted map[agg.Func]float64 `json:"predicted"`
	Repaired  float64              `json:"repaired"`
	Score     float64              `json:"score"`
	Gain      float64              `json:"gain"`
}

type jsonHierarchyResult struct {
	Hierarchy string           `json:"hierarchy"`
	Attr      string           `json:"attr"`
	Current   float64          `json:"current"`
	BestScore float64          `json:"best_score"`
	Ranked    []jsonGroupScore `json:"ranked"`
}

type jsonRecommendation struct {
	// Best names the winning hierarchy (an entry of Hierarchies); encoding
	// the name rather than repeating the result keeps the document acyclic.
	Best        string                `json:"best"`
	Hierarchies []jsonHierarchyResult `json:"hierarchies"`
}

// NonFiniteError is MarshalJSON's refusal of a recommendation holding a NaN
// or an infinity, which JSON has no number for: finite measures whose squares
// overflow make std statistics NaN, and a custom repair may return one.
type NonFiniteError struct {
	Hierarchy string
	Field     string // e.g. "current", "ranked[2].predicted.std"
	Value     float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("core: hierarchy %q: %s is %v, which JSON cannot encode", e.Hierarchy, e.Field, e.Value)
}

// finite returns a *NonFiniteError for the first of vals JSON cannot hold,
// naming it names[i], within ranked group j when j ≥ 0.
func finite(hierarchy string, j int, names []string, vals ...float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			field := names[i]
			if j >= 0 {
				field = fmt.Sprintf("ranked[%d].%s", j, field)
			}
			return &NonFiniteError{Hierarchy: hierarchy, Field: field, Value: v}
		}
	}
	return nil
}

// MarshalJSON encodes the recommendation deterministically, or returns a
// *NonFiniteError naming the first value JSON cannot hold.
func (r *Recommendation) MarshalJSON() ([]byte, error) {
	out := jsonRecommendation{Hierarchies: make([]jsonHierarchyResult, len(r.All))}
	if r.Best != nil {
		out.Best = r.Best.Hierarchy
	}
	for i, hr := range r.All {
		if err := finite(hr.Hierarchy, -1, []string{"current", "best_score"}, hr.Current, hr.BestScore); err != nil {
			return nil, err
		}
		jh := jsonHierarchyResult{
			Hierarchy: hr.Hierarchy,
			Attr:      hr.Attr,
			Current:   hr.Current,
			BestScore: hr.BestScore,
			Ranked:    make([]jsonGroupScore, len(hr.Ranked)),
		}
		for j, gs := range hr.Ranked {
			if err := finite(hr.Hierarchy, j, []string{"repaired", "score", "gain"}, gs.Repaired, gs.Score, gs.Gain); err != nil {
				return nil, err
			}
			var bad agg.Func // the least non-finite statistic, whatever the map's order
			for f, v := range gs.Predicted {
				if (math.IsNaN(v) || math.IsInf(v, 0)) && (bad == "" || f < bad) {
					bad = f
				}
			}
			if bad != "" {
				return nil, finite(hr.Hierarchy, j, []string{"predicted." + string(bad)}, gs.Predicted[bad])
			}
			jh.Ranked[j] = jsonGroupScore{
				Group:     gs.Group.Vals,
				Predicted: gs.Predicted,
				Repaired:  gs.Repaired,
				Score:     gs.Score,
				Gain:      gs.Gain,
			}
		}
		out.Hierarchies[i] = jh
	}
	return json.Marshal(out)
}
