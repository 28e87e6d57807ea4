// Benchmarks for the parallel ingest pipeline: chunked Newick parsing,
// fan-out row staging, and pipelined BulkInsert. Run with -cpu 1,4 to see
// the stages scale with GOMAXPROCS; every worker count produces identical
// relations, so the variants measure the same work.
package crimson_test

import (
	"fmt"
	"testing"

	crimson "repro"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/relstore"
	"repro/internal/treestore"
)

// BenchmarkParallelIngest times the ingest stages separately and end to
// end on a 10k-leaf Yule tree. Workers default to GOMAXPROCS, so the
// -cpu 1,4 variants compare the serial and parallel pipelines directly.
func BenchmarkParallelIngest(b *testing.B) {
	t := yuleTree(b, 10000)
	text := newick.String(t)

	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := newick.ParseWorkers(text, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("stage", func(b *testing.B) {
		// Staging cannot run without the insert that follows; the stage
		// metric reports its isolated share of the load.
		var stage, insert int64
		for i := 0; i < b.N; i++ {
			s := crimson.OpenMem()
			var m treestore.LoadMetrics
			if _, err := s.Trees.LoadOpts("t", t, core.DefaultFanout, treestore.LoadOptions{Metrics: &m}, nil); err != nil {
				b.Fatal(err)
			}
			s.Close()
			stage += m.StageNS
			insert += m.InsertNS
		}
		b.ReportMetric(float64(stage)/float64(b.N)/1e6, "stage-ms/op")
		b.ReportMetric(float64(insert)/float64(b.N)/1e6, "insert-ms/op")
	})

	b.Run("bulkinsert", func(b *testing.B) {
		schema := relstoreBenchSchema()
		rows := relstoreBenchRows(20000)
		for i := 0; i < b.N; i++ {
			db := relstore.OpenMemDB()
			tab, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.BulkInsert(rows); err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
		b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
	})

	b.Run("e2e", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := newick.ParseWorkers(text, 0)
			if err != nil {
				b.Fatal(err)
			}
			s := crimson.OpenMem()
			if _, err := s.Trees.LoadOpts("t", tr, core.DefaultFanout, treestore.LoadOptions{}, nil); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
		b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
	})
}

// BenchmarkParallelIngestWorkers pins explicit worker counts (independent
// of -cpu) so the scaling curve of the whole pipeline is visible on a
// multi-core runner in one run.
func BenchmarkParallelIngestWorkers(b *testing.B) {
	t := yuleTree(b, 10000)
	text := newick.String(t)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := newick.ParseWorkers(text, workers)
				if err != nil {
					b.Fatal(err)
				}
				s := crimson.OpenMem()
				if _, err := s.Trees.LoadOpts("t", tr, core.DefaultFanout, treestore.LoadOptions{Workers: workers}, nil); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
