package repro

// One benchmark per paper table/figure. Each bench drives
// the corresponding runner in internal/experiments at a scale suitable for
// iteration; cmd/experiments -scale full reproduces the paper-scale sweeps
// and prints the result tables.

import (
	"testing"

	"repro/internal/experiments"
)

func BenchmarkFig7MatrixOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(4, 1)
	}
}

func BenchmarkFig8MultiQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8([]int{200, 400}, 1)
	}
}

func BenchmarkFig9DrillDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(4000, 1)
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(0.02, 3, 1)
	}
}

func BenchmarkFig11Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(3, []float64{0.8}, 1)
	}
}

func BenchmarkFig12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(3, []float64{0.8}, 1)
	}
}

func BenchmarkFig13Covid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(1)
	}
}

func BenchmarkFig15ClusterOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15(3, 1)
	}
}

func BenchmarkFig16AIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig16(5, 1)
	}
}

func BenchmarkFig18Vote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig18(1)
	}
}

func BenchmarkFISTStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.FISTStudy(5, 1)
	}
}
