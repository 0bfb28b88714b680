// Command reptile answers complaint-based drill-down queries over a CSV or
// .rst dataset from the command line. It is a thin shell around the public
// reptile SDK — everything it does is available programmatically via
// reptile.Open.
//
// A -data path ending in .rst loads a dictionary-encoded binary snapshot
// (written by "reptile convert" or cmd/gendata) instead of CSV; the snapshot
// carries its own measures and hierarchies, so -measures and -hierarchies
// are then optional. Convert a CSV once with:
//
//	reptile convert -data survey.csv \
//	        -hierarchies "geo:region,district,village;time:year" \
//	        -measures severity -out survey.rst [-cube] [-shards N] [-shard-key dim]
//
// A -data path ending in .rst is rewritten in the current format instead: it
// carries its own schema, so -hierarchies and -measures are then omitted.
//
// With -cube the snapshot additionally materializes the hierarchy rollup
// cube (internal/cube): group-bys over hierarchy prefixes are then answered
// from precomputed cells when the snapshot is loaded, here or by reptiled.
// With -shards N (N ≥ 2) the output is a partitioned snapshot: rows are
// hashed on a hierarchy-root dimension (-shard-key, default: the first
// hierarchy's root) into N per-shard column sections sharing one dictionary
// set, and loading it — here or in reptiled — serves it through the sharded
// scatter-gather engine.
//
// Usage:
//
//	reptile -data survey.csv \
//	        -hierarchies "geo:region,district,village;time:year" \
//	        -measures severity \
//	        -groupby district,year \
//	        -complain 'agg=mean measure=severity dir=low district="New York" year=1986' \
//	        [-aux "rain:rainfall.csv:village:rainfall"] [-topk 5]
//
// Complaint attribute values containing spaces are double-quoted, as in
// district="New York" above.
//
// The tool loads the dataset, validates the hierarchy metadata, evaluates
// every candidate drill-down and prints the ranked groups per hierarchy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/reptile"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		if err := runConvert(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	var (
		dataPath    = flag.String("data", "", "dataset path, CSV or .rst snapshot (required)")
		hierSpec    = flag.String("hierarchies", "", `hierarchies, e.g. "geo:region,district,village;time:year" (required for CSV)`)
		measureList = flag.String("measures", "", "comma-separated measure columns (required for CSV)")
		groupBy     = flag.String("groupby", "", "comma-separated current group-by attributes")
		complain    = flag.String("complain", "", `complaint, e.g. 'agg=mean measure=severity dir=low district="New York" year=1986' (required unless -interactive)`)
		interactive = flag.Bool("interactive", false, "start an iterative drill-down session on stdin")
		auxSpec     = flag.String("aux", "", `auxiliary datasets, e.g. "rain:rainfall.csv:village:rainfall;..."`)
		topK        = flag.Int("topk", 5, "groups to report per hierarchy")
		emIters     = flag.Int("em-iterations", 20, "EM iterations per model")
		workers     = flag.Int("workers", 0, "evaluation worker-pool size (0 = NumCPU, 1 = sequential)")
	)
	flag.Parse()
	isSnapshot := strings.HasSuffix(*dataPath, ".rst")
	if *dataPath == "" || (*complain == "" && !*interactive) ||
		(!isSnapshot && (*hierSpec == "" || *measureList == "")) {
		flag.Usage()
		os.Exit(2)
	}

	opts := []reptile.Option{
		reptile.WithEMIterations(*emIters),
		reptile.WithTopK(*topK),
		reptile.WithWorkers(*workers),
	}
	if !isSnapshot {
		opts = append(opts,
			reptile.WithMeasures(splitNonEmpty(*measureList, ",")...),
			reptile.WithHierarchies(*hierSpec))
	}
	if *auxSpec != "" {
		auxes, err := parseAux(*auxSpec)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, reptile.WithAux(auxes...))
	}
	eng, err := reptile.Open(*dataPath, opts...)
	if err != nil {
		log.Fatalf("loading %s: %v", *dataPath, err)
	}
	if *interactive {
		if err := runInteractive(eng, splitNonEmpty(*groupBy, ","), os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	sess, err := eng.NewSession(splitNonEmpty(*groupBy, ","))
	if err != nil {
		log.Fatal(err)
	}
	c, err := reptile.ParseComplaint(*complain)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := sess.Recommend(c)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("complaint: %s(%s) of %v is %v (current %.4g)\n\n",
		c.Agg, c.Measure, c.Tuple, c.Direction, rec.Best.Current)
	for _, hr := range rec.All {
		marker := " "
		if hr.Hierarchy == rec.Best.Hierarchy {
			marker = "*"
		}
		fmt.Printf("%s drill %s → %s (best score %.4g):\n", marker, hr.Hierarchy, hr.Attr, hr.BestScore)
		for i, gs := range hr.Ranked {
			fmt.Printf("    %d. %v  repaired=%.4g gain=%.4g\n",
				i+1, strings.Join(gs.Group.Vals, "/"), gs.Repaired, gs.Gain)
		}
	}
}

// runConvert implements "reptile convert": load a CSV dataset (validating
// its hierarchy metadata), or a .rst snapshot, and persist it as a .rst
// binary snapshot, which later runs load without reparsing or re-deriving
// dictionaries.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("reptile convert", flag.ExitOnError)
	var (
		in          = fs.String("data", "", "input CSV or .rst path (required)")
		out         = fs.String("out", "", "output .rst path (required)")
		hierSpec    = fs.String("hierarchies", "", `hierarchies, e.g. "geo:region,district,village;time:year" (required for CSV)`)
		measureList = fs.String("measures", "", "comma-separated measure columns (required for CSV)")
		name        = fs.String("name", "", "dataset name stored in the snapshot (default: the input path)")
		withCube    = fs.Bool("cube", false, "materialize the hierarchy rollup cube into the snapshot")
		shards      = fs.Int("shards", 0, "write a partitioned snapshot with N shards (0 or 1 = plain snapshot)")
		shardKey    = fs.String("shard-key", "", "partition dimension, a hierarchy root (default: the first hierarchy's root)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" || (!strings.HasSuffix(*in, ".rst") && (*hierSpec == "" || *measureList == "")) {
		fs.Usage()
		os.Exit(2)
	}
	var opts []reptile.Option
	if *measureList != "" {
		opts = append(opts, reptile.WithMeasures(splitNonEmpty(*measureList, ",")...))
	}
	if *hierSpec != "" {
		opts = append(opts, reptile.WithHierarchies(*hierSpec))
	}
	if *name != "" {
		opts = append(opts, reptile.WithName(*name))
	}
	// Partitioned snapshots do not store cubes (loaders rebuild per-shard
	// cubes at registration), so skip the wasted build.
	if *withCube && *shards < 2 {
		opts = append(opts, reptile.WithCube())
	}
	if *shards >= 2 {
		opts = append(opts, reptile.WithShards(*shards))
		if *shardKey != "" {
			opts = append(opts, reptile.WithShardKey(*shardKey))
		}
	}
	eng, err := reptile.Open(*in, opts...)
	if err != nil {
		return fmt.Errorf("loading %s: %w", *in, err)
	}
	info, err := eng.Save(*out)
	if err != nil {
		return err
	}
	cubeNote := ""
	if *withCube {
		if *shards >= 2 {
			cubeNote = ", cube: not stored in partitioned snapshots (rebuilt at load)"
		} else if info.CubeLevels > 0 {
			cubeNote = fmt.Sprintf(", cube: %d groupings / %d cells", info.CubeLevels, info.CubeCells)
		} else {
			cubeNote = ", cube: skipped (dataset not cubable)"
		}
	}
	shardNote := ""
	if info.Shards > 0 {
		shardNote = fmt.Sprintf(", %d shards", info.Shards)
	}
	fmt.Printf("wrote %d rows (%d dimensions, %d measures%s%s) to %s\n",
		info.Rows, info.Dims, info.Measures, shardNote, cubeNote, *out)
	return nil
}

func parseAux(spec string) ([]reptile.Aux, error) {
	var out []reptile.Aux
	for _, part := range splitNonEmpty(spec, ";") {
		fields := strings.Split(part, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("bad aux %q: want name:path:joinattr:measure", part)
		}
		table, err := reptile.ReadCSVFile(fields[1], fields[0], []string{fields[3]}, nil)
		if err != nil {
			return nil, fmt.Errorf("loading aux %s: %w", fields[0], err)
		}
		out = append(out, reptile.Aux{Name: fields[0], Table: table, JoinAttr: fields[2], Measure: fields[3]})
	}
	return out, nil
}

func splitNonEmpty(s, sep string) []string {
	var out []string
	for _, p := range strings.Split(s, sep) {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
