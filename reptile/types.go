package reptile

import (
	"io"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/feature"
)

// The SDK's types are aliases of the engine's own: values cross the facade
// boundary without conversion, and a Recommendation obtained here marshals
// byte-identically to one produced inside internal/core (the property the
// wire protocol's round-trip tests pin down).

type (
	// Dataset is an in-memory columnar table: categorical dimension columns,
	// float64 measure columns, and hierarchy metadata. Build one with
	// NewDataset + AppendRowVals (generators) or ReadCSV/ReadCSVFile.
	Dataset = data.Dataset
	// Hierarchy is one dimension of the dataset: an ordered attribute list
	// from least to most specific (e.g. region, district, village), each
	// more specific attribute functionally determining the less specific.
	Hierarchy = data.Hierarchy
	// Predicate is a conjunction of attribute = value conditions; complaints
	// use one to identify the complained tuple.
	Predicate = data.Predicate

	// Complaint states that one tuple's aggregate deviates from expectation:
	// the aggregate, the measure it is computed over, the tuple's identifying
	// dimension values, and the deviation direction.
	Complaint = core.Complaint
	// Direction expresses how the complained value deviates (TooHigh,
	// TooLow, or ShouldBe with a Target).
	Direction = core.Direction
	// Recommendation is the output of one Reptile invocation: every
	// candidate hierarchy's evaluation and the best one.
	Recommendation = core.Recommendation
	// HierarchyResult is the evaluation of one candidate drill-down
	// hierarchy.
	HierarchyResult = core.HierarchyResult
	// GroupScore is one ranked drill-down group: its statistics, the model's
	// expected values, and the complaint score after repairing it.
	GroupScore = core.GroupScore
	// Trainer selects the model-training backend (see WithTrainer).
	Trainer = core.TrainerKind
	// RandomEffects selects the random-effects design Z (see
	// WithRandomEffects).
	RandomEffects = core.RandomEffects

	// Agg identifies a distributive aggregation function.
	Agg = agg.Func
	// Stats is a group's distributive statistics (count, sum, sum of
	// squares), from which every supported aggregate derives.
	Stats = agg.Stats
	// Group is one group of a group-by: its key values and statistics.
	Group = agg.Group

	// Aux is an auxiliary dataset joined on a single attribute; its measure
	// becomes a model feature (see WithAux).
	Aux = feature.Aux
	// GroupFeature is a multi-attribute per-group feature (see
	// WithGroupFeatures, LagFeature, AuxGroupFeature).
	GroupFeature = feature.GroupFeature
)

// The supported aggregation functions.
const (
	Count = agg.Count
	Sum   = agg.Sum
	Mean  = agg.Mean
	Std   = agg.Std
)

// The complaint directions.
const (
	// TooHigh means the aggregate should be lower.
	TooHigh = core.TooHigh
	// TooLow means the aggregate should be higher.
	TooLow = core.TooLow
	// ShouldBe means the aggregate should equal Complaint.Target.
	ShouldBe = core.ShouldBe
)

// The training backends.
const (
	// TrainerAuto picks TrainerFactorised when the observed groups nearly
	// fill the cross product of hierarchy paths, and TrainerNaive otherwise.
	TrainerAuto = core.TrainerAuto
	// TrainerNaive materializes the design matrix over observed groups.
	TrainerNaive = core.TrainerNaive
	// TrainerFactorised trains over the factorised representation.
	TrainerFactorised = core.TrainerFactorised
	// TrainerNaiveFull materializes the complete cross-product feature
	// matrix and trains densely over it (the paper's Matlab regime).
	TrainerNaiveFull = core.TrainerNaiveFull
)

// The random-effects designs.
const (
	// ZAuto uses intercept-only random effects when clusters are too small
	// to identify per-cluster coefficients, and the full design otherwise.
	ZAuto = core.ZAuto
	// ZFull uses Z = X (minus features excluded via WithExcludeFromZ).
	ZFull = core.ZFull
	// ZIntercept uses intercept-only random effects.
	ZIntercept = core.ZIntercept
)

// NewDataset creates an empty in-memory dataset with the given dimension and
// measure columns; fill it with AppendRowVals or AppendRow, then hand it to
// New.
func NewDataset(name string, dimNames, measureNames []string, hierarchies []Hierarchy) *Dataset {
	return data.New(name, dimNames, measureNames, hierarchies)
}

// ReadCSV loads a dataset from CSV content. Columns named in measures are
// parsed as float64 measure columns; all other columns become dimensions.
// hierarchies may be nil (e.g. for auxiliary tables).
func ReadCSV(r io.Reader, name string, measures []string, hierarchies []Hierarchy) (*Dataset, error) {
	return data.ReadCSV(r, name, measures, hierarchies)
}

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path, name string, measures []string, hierarchies []Hierarchy) (*Dataset, error) {
	return data.ReadCSVFile(path, name, measures, hierarchies)
}

// ParseComplaint parses the compact complaint notation shared by the CLI and
// the server: space-separated key=value fields, e.g.
//
//	agg=mean measure=severity dir=low district="New York" year=1986
//
// Recognized keys are agg (count, sum, mean, std), measure, dir (high, low,
// or should) and target (required with dir=should); every other key becomes
// a tuple condition. Values containing spaces are double-quoted.
func ParseComplaint(spec string) (Complaint, error) { return core.ParseComplaint(spec) }

// ParseHierarchies parses the compact hierarchy notation:
// semicolon-separated hierarchies, each "name:attr1,attr2,..." from least to
// most specific, e.g. "geo:region,district,village;time:year".
func ParseHierarchies(spec string) ([]Hierarchy, error) { return data.ParseHierarchySpec(spec) }

// LagFeature builds a per-group feature holding the group's target statistic
// at time − lag along timeAttr (trend and seasonality features for temporal
// data). A negative lag is a lead, time + |lag|. A group with no such
// counterpart holds its own statistic.
func LagFeature(timeAttr string, lag int) GroupFeature { return feature.LagFeature(timeAttr, lag) }

// AuxGroupFeature builds a per-group feature from an auxiliary table joined
// on multiple attributes: each group's feature value is the mean of measure
// over the aux rows matching the group's joinAttrs values.
func AuxGroupFeature(name string, table *Dataset, joinAttrs []string, measure string) GroupFeature {
	return feature.AuxGroupFeature(name, table, joinAttrs, measure)
}
