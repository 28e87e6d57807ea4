// Replication commands: `crimson promote` flips a follower crimsond
// into a writable primary over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/client"
)

func cmdPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8321", "follower crimsond base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "promote request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	st, err := client.New(*addr, nil).PromoteCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%s promoted: role=%s\n", *addr, st.Role)
	for _, sh := range st.Shards {
		fmt.Printf("  shard %d: epoch %d\n", sh.Shard, sh.Epoch)
	}
	return nil
}
