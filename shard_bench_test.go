package crimson_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// BenchmarkShardedParallelLoad is the sharding acceptance benchmark:
// 4 distinct trees loaded concurrently (one goroutine per tree, loads on
// the same shard serialized per the one-writer-per-shard contract) into a
// 1-shard vs a 4-shard repository. On one shard all four loads funnel
// through a single writer lock and a single storage engine; on four shards
// — the tree names are chosen to hash onto four distinct shards — they
// run on four independent engines. The reported nodes/s metric is the
// aggregate load throughput; with GOMAXPROCS >= 4 the 4-shard arm is
// expected at >= 2x the 1-shard arm, while on a single-core box the two
// arms measure the same CPU serialized two ways and stay comparable.
func BenchmarkShardedParallelLoad(b *testing.B) {
	const nTrees = 4
	const leaves = 5000

	// Names that land on 4 distinct shards under the 4-shard router (the
	// same names are used in the 1-shard arm, where they all share shard 0).
	router4, err := shard.NewRouter(4)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 4)
	for i, found := 0, 0; found < nTrees; i++ {
		name := fmt.Sprintf("ptree%d", i)
		if si := router4.Place(name); names[si] == "" {
			names[si] = name
			found++
		}
	}

	trees := make([]*crimson.Tree, nTrees)
	totalNodes := 0
	for i := range trees {
		tr, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = tr
		totalNodes += tr.NumNodes()
	}

	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			router, err := shard.NewRouter(shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo := crimson.OpenMemSharded(shards)
				writerMu := make([]sync.Mutex, shards)
				var wg sync.WaitGroup
				for j := range trees {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						si := router.Place(names[j])
						writerMu[si].Lock()
						defer writerMu[si].Unlock()
						if _, err := repo.Trees.LoadOpts(names[j], trees[j], crimson.DefaultFanout, crimson.LoadOptions{}, nil); err != nil {
							b.Error(err)
						}
					}(j)
				}
				wg.Wait()
				repo.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(totalNodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
