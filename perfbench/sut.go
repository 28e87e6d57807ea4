package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	crimson "repro"
	"repro/client"
)

// The `crimson serve` defaults, spelled out: perfbench measures the system
// as an operator starts it, not a tuned one. The buffer pool (4096 frames
// = 16 MiB), the checkpoint policy (4 MB / 1 s), the 64 read slots, the
// 1024-entry result cache and WAL fsync are the engine's own defaults and
// are left alone.
const serveReadCacheMB = 64

const (
	poolBytes          = 4096 * 4096 // storage.DefaultPoolSize frames of storage.PageSize
	resultCacheEntries = 1024
)

// sut is the system under test: a file-backed primary crimsond on a
// loopback port and, for repl_rw, a streaming follower beside it.
type sut struct {
	dir  string
	repo *crimson.Repository
	srv  *crimson.Server

	frepo   *crimson.Repository
	fl      *crimson.Follower
	fsrv    *crimson.Server
	fcancel context.CancelFunc

	stopped bool
}

func (s *sut) pageFile() string    { return filepath.Join(s.dir, "repo.db") }
func (s *sut) primaryURL() string  { return "http://" + s.srv.Addr() }
func (s *sut) followerURL() string { return "http://" + s.fsrv.Addr() }
func (s *sut) hasFollower() bool   { return s.fsrv != nil }
func (s *sut) readRepo() *crimson.Repository {
	if s.frepo != nil {
		return s.frepo
	}
	return s.repo
}

// startPrimary opens (creating if needed) the repository in dir and serves
// it with the serve defaults.
func startPrimary(dir string) (*sut, error) {
	s := &sut{dir: dir}
	repo, err := crimson.Open(s.pageFile())
	if err != nil {
		return nil, err
	}
	repo.SetReadCacheMB(serveReadCacheMB)
	s.repo = repo
	s.srv = repo.NewServer(crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := s.srv.Start(); err != nil {
		repo.Close()
		return nil, err
	}
	return s, nil
}

// startFollower attaches a streaming follower and waits for its first
// catch-up, as `crimson serve -follow` does.
func (s *sut) startFollower() error {
	ctx, cancel := context.WithCancel(context.Background())
	frepo, fl, err := crimson.OpenFollower(ctx, filepath.Join(s.dir, "follower"), s.primaryURL())
	if err != nil {
		cancel()
		return fmt.Errorf("perfbench: opening follower: %w", err)
	}
	frepo.SetReadCacheMB(serveReadCacheMB)
	fsrv := frepo.NewFollowerServer(fl, crimson.ServerConfig{Addr: "127.0.0.1:0"})
	if err := fsrv.Start(); err != nil {
		fl.Stop()
		frepo.Close()
		cancel()
		return err
	}
	s.frepo, s.fl, s.fsrv, s.fcancel = frepo, fl, fsrv, cancel
	return nil
}

// stop shuts everything down and waits for it: servers drain, the
// follower's apply loops exit, repositories close. Safe to call twice.
func (s *sut) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.fsrv != nil {
		errs = append(errs, s.fsrv.Shutdown(ctx))
		s.fl.Stop()
		errs = append(errs, s.frepo.Close())
		s.fcancel()
		s.fsrv = nil
	}
	errs = append(errs, s.srv.Shutdown(ctx), s.repo.Close())
	return errors.Join(errs...)
}

// reopen restarts the primary on the same files: every cache the process
// owns (buffer pool, decoded nodes, handles, results) starts cold.
func (s *sut) reopen() error {
	if err := s.stop(); err != nil {
		return err
	}
	n, err := startPrimary(s.dir)
	if err != nil {
		return err
	}
	*s = *n
	return nil
}

// newClient builds a client with its own kept-alive connection pool. With
// a follower, reads go there fenced at the client's last write.
func (s *sut) newClient() (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: numClients}
	hc := &http.Client{Transport: tr}
	if s.hasFollower() {
		return client.New(s.primaryURL(), hc, client.WithReplicas(s.followerURL()), client.WithReadYourWrites()), tr
	}
	return client.New(s.primaryURL(), hc), tr
}

// load uploads the resident trees through the path the workload uses:
// HTTP for served workloads, the facade otherwise.
func (s *sut) load(ctx context.Context, fx *fixture, trees []*treeFix) error {
	cl, tr := s.newClient()
	defer tr.CloseIdleConnections()
	for _, tf := range trees {
		var err error
		if fx.spec.served {
			_, err = cl.LoadNewickCtx(ctx, tf.name, 0, strings.NewReader(tf.body))
		} else {
			_, err = s.repo.LoadTree(tf.name, tf.tree, crimson.DefaultFanout, nil)
		}
		if err != nil {
			return fmt.Errorf("perfbench: loading %s: %w", tf.name, err)
		}
	}
	return nil
}

// preload stores the two trees per client that the first two cycles of an
// ingest_churn stream delete.
func (s *sut) preload(ctx context.Context, fx *fixture, prefix string, clients int) error {
	if fx.churn == nil {
		return nil
	}
	var pre []*treeFix
	for c := 0; c < clients; c++ {
		for cycle := -2; cycle < 0; cycle++ {
			tf := *fx.churn[0]
			tf.name = churnName(prefix, c, cycle)
			pre = append(pre, &tf)
		}
	}
	return s.load(ctx, fx, pre)
}

// workDir makes a fresh directory for one set-up under base.
func workDir(base string, n int) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("sut%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
