package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"hrtsched/internal/machine"
	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
	"hrtsched/internal/wal"
)

// daemon is hrtd as cmd/hrtd boots it by default: the query server plus a
// 4-node first-fit placement cluster on the phi machine at a 0.99 limit,
// both behind Server.HandlerWithCluster. Durability is optional.
type daemon struct {
	srv     *serve.Server
	cluster *serve.Cluster
	handler http.Handler
	closed  bool
}

func daemonSpec() plan.Spec { return serve.SpecFor(machine.PhiKNL(), 0.99) }

// bootDaemon constructs the daemon; dataDir != "" turns durability on and
// makes the boot recover whatever the directory holds. fs, when non-nil,
// replaces the real filesystem under the WAL.
func bootDaemon(dataDir string, fs wal.FS) (*daemon, error) {
	spec := daemonSpec()
	if spec.OverheadNs != oracleOverheadNs || spec.UtilizationLimit != oracleLimit {
		return nil, fmt.Errorf("daemon spec %+v differs from the oracle's (%d ns, %g)",
			spec, int64(oracleOverheadNs), oracleLimit)
	}
	srv, err := serve.New(serve.Config{Spec: spec})
	if err != nil {
		return nil, err
	}
	ccfg := serve.ClusterConfig{Spec: spec, Nodes: 4, Policy: serve.FirstFit}
	if dataDir != "" {
		ccfg.Durability = &serve.DurabilityConfig{Dir: dataDir, FS: fs}
	}
	cl, err := serve.NewCluster(ccfg)
	if err != nil {
		srv.Close()
		return nil, err
	}
	cl.RegisterMetrics(srv.Registry())
	return &daemon{srv: srv, cluster: cl, handler: srv.HandlerWithCluster(cl)}, nil
}

func (d *daemon) close() {
	if d.closed {
		return
	}
	d.closed = true
	d.cluster.Close()
	d.srv.Close()
}

// client calls a handler in process, the way net/http would after reading
// a request off a connection, and keeps the last answer.
type client struct {
	h      http.Handler
	urls   map[string]*url.URL
	w      respWriter
	reader bytes.Reader
}

func newClient(h http.Handler) *client {
	return &client{h: h, urls: map[string]*url.URL{}, w: respWriter{hdr: http.Header{}}}
}

// do sends one request and returns the status, the body (valid until the
// next call), and when ServeHTTP started and how long it took.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Time, time.Duration) {
	req := c.request(method, path, body)
	c.w.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, req)
	return c.w.status, c.w.buf.Bytes(), t0, time.Since(t0)
}

func (c *client) request(method, path string, body []byte) *http.Request {
	u := c.urls[path]
	if u == nil {
		u = &url.URL{Path: path}
		c.urls[path] = u
	}
	c.reader.Reset(body)
	return &http.Request{
		Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(&c.reader), ContentLength: int64(len(body)),
		Host: "hrtd", RequestURI: path, RemoteAddr: "127.0.0.1:1",
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are encoded
	}
	return b
}

// respWriter is a reusable http.ResponseWriter.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.buf.Reset()
}

// copyDir copies a flat directory of regular files (a WAL and snapshot
// directory) to dst, which must not exist.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// noSyncFS skips fsync. It writes the fixed recovery history, whose
// content matters and whose write speed does not.
type noSyncFS struct{ wal.OSFS }

func (f noSyncFS) Create(name string) (wal.File, error) {
	fl, err := f.OSFS.Create(name)
	return noSyncFile{fl}, err
}

func (f noSyncFS) Open(name string) (wal.File, error) {
	fl, err := f.OSFS.Open(name)
	return noSyncFile{fl}, err
}

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

// timedFS times every fsync of a WAL segment for the traced ladder.
type timedFS struct {
	wal.OSFS
	syncs *[]time.Duration
}

func (f timedFS) Create(name string) (wal.File, error) {
	fl, err := f.OSFS.Create(name)
	return f.wrap(name, fl), err
}

func (f timedFS) Open(name string) (wal.File, error) {
	fl, err := f.OSFS.Open(name)
	return f.wrap(name, fl), err
}

func (f timedFS) wrap(name string, fl wal.File) wal.File {
	if fl == nil || filepath.Ext(name) != ".wal" {
		return fl
	}
	return timedFile{fl, f.syncs}
}

type timedFile struct {
	wal.File
	syncs *[]time.Duration
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	*f.syncs = append(*f.syncs, time.Since(t0))
	return err
}
