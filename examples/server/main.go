// Example server demonstrates crimsond end to end in one process: it
// starts the HTTP server over an in-memory repository on an ephemeral
// port, loads a generated Yule gold tree through the typed client, and
// runs a projection + LCA round trip over the real wire path — all with
// the context-first client API: a per-request default timeout, a streaming
// export, and the auto-paginating tree iterator.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	crimson "repro"
	"repro/client"
)

func main() {
	ctx := context.Background()

	// 1. Repository + server on an ephemeral port.
	repo := crimson.OpenMem()
	defer repo.Close()
	srv := repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	fmt.Printf("crimsond listening on %s\n", srv.Addr())

	// 2. Generate a gold-standard tree and load it over HTTP. The client
	// applies a default 30s timeout to every request whose context carries
	// no deadline of its own.
	gold, err := crimson.GenerateYule(500, 1.0, rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}
	cl := client.New("http://"+srv.Addr(), nil, client.WithTimeout(30*time.Second))
	info, err := cl.LoadTreeCtx(ctx, "gold", crimson.DefaultFanout, gold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %q over HTTP: %d nodes, %d leaves, %d layers\n",
		info.Name, info.Nodes, info.Leaves, info.Layers)

	// 3. Sample species and project the stored tree over them.
	species, err := cl.SampleUniformCtx(ctx, "gold", 8, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled species: %v\n", species)
	projected, err := cl.ProjectTreeCtx(ctx, "gold", species)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projection over the sample:\n%s", crimson.ASCII(projected))

	// 4. LCA round trip — twice, to show the result cache at work.
	for i := 0; i < 2; i++ {
		lca, err := cl.LCACtx(ctx, "gold", species[0], species[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("LCA(%s, %s) = node %d at depth %d (cached=%v)\n",
			species[0], species[1], lca.Node.ID, lca.Node.Depth, lca.Cached)
	}

	// 5. Stream the stored tree back out as chunked Newick: the server
	// never materializes the serialization, and neither do we — count the
	// bytes as they arrive.
	rc, err := cl.ExportReader(ctx, "gold")
	if err != nil {
		log.Fatal(err)
	}
	var exported int
	br := bufio.NewReader(rc)
	for {
		b, err := br.ReadByte()
		if err != nil {
			break
		}
		_ = b
		exported++
	}
	rc.Close()
	fmt.Printf("streamed export: %d bytes of Newick\n", exported)

	// 6. Walk the tree listing with the auto-paginating iterator (one tree
	// here, but the same loop handles millions, one page at a time).
	for ti, err := range cl.TreesIter(ctx, 50) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("listed tree %q (%d leaves)\n", ti.Name, ti.Leaves)
	}

	// 7. Server-side stats.
	stats, err := cl.StatsCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: %d requests, %d cache hits, %d aborted reads\n",
		stats.Requests, stats.CacheHits, stats.AbortedReads)
}
