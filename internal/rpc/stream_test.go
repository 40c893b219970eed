package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"met/internal/hbase"
	"met/internal/obs"
)

// stubServer serves frame streams whose ops dispatch runs, on a
// loopback listener closed when the test ends.
func stubServer(t testing.TB, dispatch func(op byte, epoch int64, payload, out []byte) ([]byte, error)) *Server {
	t.Helper()
	srv := newServer("stub", http.NewServeMux(), io.Discard, obs.DebugConfig{}, dispatch)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialRaw opens one stream to addr outside any client pool, closed when
// the test ends.
func dialRaw(t testing.TB, addr string) *conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cn, err := dialStream(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.nc.Close() })
	return cn
}

// within is a context that ends after d.
func within(t testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestStreamPanicAnswersInternal: an op that panics answers an
// internal-error frame, is logged and counted, and the same stream
// serves the next op.
func TestStreamPanicAnswersInternal(t *testing.T) {
	var logbuf syncBuffer
	srv := newServer("stub", http.NewServeMux(), &logbuf, obs.DebugConfig{},
		func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
			if string(payload) == "boom" {
				panic("kaboom")
			}
			return append(out, "fine"...), nil
		})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cn := dialRaw(t, srv.Addr())
	f, err := cn.roundTrip(within(t, 5*time.Second), opGet, 1, []byte("boom"))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != statusInternal || !strings.Contains(string(f.payload), "kaboom") {
		t.Fatalf("panicking op: status %d payload %q", f.kind, f.payload)
	}
	f, err = cn.roundTrip(within(t, 5*time.Second), opGet, 1, []byte("next"))
	if err != nil || f.kind != statusOK || string(f.payload) != "fine" {
		t.Fatalf("op after the panic: status %d payload %q, %v", f.kind, f.payload, err)
	}
	if log := logbuf.String(); !strings.Contains(log, "kaboom") || !strings.Contains(log, "/node/get ok") {
		t.Fatalf("log lacks the panic or the per-op line:\n%s", log)
	}
	if s := srv.opHists[opGet].Snapshot(); s.Count() != 2 {
		t.Fatalf(`op="/node/get" holds %d ops, want 2`, s.Count())
	}
}

// TestStreamMalformedFrameCloses: a frame whose CRC does not match, or
// whose length is out of bounds, ends the stream without running the
// op.
func TestStreamMalformedFrameCloses(t *testing.T) {
	var ran atomic.Int64
	srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
		ran.Add(1)
		return out, nil
	})
	corrupt := sealFrame(append(beginFrame(nil, opPut, 1), appendStr(appendStr(nil, "t"), "k")...))
	corrupt[len(corrupt)-1] ^= 0xff
	oversize := binary.LittleEndian.AppendUint32(nil, maxBody+1)
	short := binary.LittleEndian.AppendUint32(nil, 3)
	for name, raw := range map[string][]byte{"bad crc": corrupt, "oversize": oversize, "short": short} {
		cn := dialRaw(t, srv.Addr())
		_ = cn.nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cn.nc.Write(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := readFrame(cn.br, nil); err == nil {
			t.Fatalf("%s: the server answered a malformed frame", name)
		} else if errors.Is(err, errFrameCRC) || errors.Is(err, errFrameLength) {
			t.Fatalf("%s: the server sent a malformed reply: %v", name, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d ops ran from malformed frames", n)
	}
}

// TestReadFrameAllocatesAsBytesArrive: a length word that claims the
// whole bound, with nothing behind it, costs the reader a small buffer,
// not the bound; a frame that does arrive in full still reads back.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	claim := binary.LittleEndian.AppendUint32(nil, maxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(claim)), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("a bare length word cost %d bytes", got)
	}
	big := bytes.Repeat([]byte("x"), 100<<10)
	f, _, err := readFrame(bufio.NewReader(bytes.NewReader(sealFrame(append(beginFrame(nil, opPut, 7), big...)))), make([]byte, 0, 16))
	if err != nil || f.kind != opPut || f.epoch != 7 || !bytes.Equal(f.payload, big) {
		t.Fatalf("100 KiB frame: kind %d epoch %d %d bytes, %v", f.kind, f.epoch, len(f.payload), err)
	}
}

// TestDrainIdleAndBusyStreams: Drain ends an idle stream at once, lets
// a busy stream's op finish and answer, refuses new streams, and
// returns within its ctx; a ctx that ends first force-closes the busy
// stream.
func TestDrainIdleAndBusyStreams(t *testing.T) {
	for _, tc := range []struct {
		name    string
		budget  time.Duration
		wantErr error
	}{
		{"in budget", 5 * time.Second, nil},
		{"past budget", 50 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			started := make(chan struct{}, 1)
			srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
				started <- struct{}{}
				time.Sleep(300 * time.Millisecond)
				return append(out, "done"...), nil
			})
			idle := dialRaw(t, srv.Addr())
			busy := dialRaw(t, srv.Addr())
			type result struct {
				f   frame
				err error
			}
			reply := make(chan result, 1)
			go func() {
				f, err := busy.roundTrip(context.Background(), opPut, 1, nil)
				reply <- result{f, err}
			}()
			<-started

			begin := time.Now()
			err := srv.Drain(within(t, tc.budget))
			took := time.Since(begin)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("drain: %v, want %v", err, tc.wantErr)
			}
			if took > tc.budget+100*time.Millisecond {
				t.Fatalf("drain took %v against a %v budget", took, tc.budget)
			}
			r := <-reply
			switch {
			case tc.wantErr == nil && (r.err != nil || r.f.kind != statusOK || string(r.f.payload) != "done"):
				t.Fatalf("busy op across the drain: status %d payload %q, %v", r.f.kind, r.f.payload, r.err)
			case tc.wantErr != nil && r.err == nil:
				t.Fatal("busy stream answered after the drain's budget ran out")
			}
			_ = idle.nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := readFrame(idle.br, nil); !errors.Is(err, io.EOF) {
				t.Fatalf("idle stream after drain: %v, want EOF", err)
			}
			if _, err := dialStream(within(t, time.Second), srv.Addr()); err == nil {
				t.Fatal("a drained server accepted a new stream")
			}
		})
	}
}

// TestDrainingServerRefusesUpgrade: an upgrade that reaches a draining
// server on a connection it already accepted is refused with 503.
func TestDrainingServerRefusesUpgrade(t *testing.T) {
	srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) { return out, nil })
	srv.draining.Store(true)
	_, err := dialStream(within(t, 5*time.Second), srv.Addr())
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), CodeDraining) {
		t.Fatalf("upgrade on a draining server: %v, want a 503 draining refusal", err)
	}
}

// TestCloseLeavesNoStreamGoroutine: Close does not wait, yet every
// stream goroutine exits soon after, idle or mid-op; the count of
// goroutines serving streams settles at zero.
func TestCloseLeavesNoStreamGoroutine(t *testing.T) {
	settle := func(stage string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for streamGoroutines() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d stream goroutines left 5 s %s", streamGoroutines(), stage)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	settle("after the earlier tests' servers closed")
	started := make(chan struct{}, 1)
	srv := stubServer(t, func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
		if op == opPut {
			started <- struct{}{}
			time.Sleep(100 * time.Millisecond)
		}
		return out, nil
	})
	for i := 0; i < 4; i++ {
		cn := dialRaw(t, srv.Addr())
		if _, err := cn.roundTrip(within(t, 5*time.Second), opGet, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	busy := dialRaw(t, srv.Addr())
	go func() { _, _ = busy.roundTrip(context.Background(), opPut, 1, nil) }()
	<-started
	if n := streamGoroutines(); n != 5 {
		t.Fatalf("%d stream goroutines before Close, want 5", n)
	}
	begin := time.Now()
	srv.Close()
	if d := time.Since(begin); d > 50*time.Millisecond {
		t.Fatalf("Close blocked for %v", d)
	}
	settle("after Close")
}

// TestRestartedWorkerStaleStreamsDropped: when a worker restarts on
// the same address, the first op that fails on one of its pooled
// streams drops the rest, so the retry dials afresh instead of spending
// every attempt on another dead stream.
func TestRestartedWorkerStaleStreamsDropped(t *testing.T) {
	const pooled = 6 // more than the attempts an op gets
	serve := func(addr string) *Server {
		mux := http.NewServeMux()
		srv := newServer("stub", mux, io.Discard, obs.DebugConfig{},
			func(op byte, epoch int64, payload, out []byte) ([]byte, error) {
				return append(out, "v"...), nil
			})
		// The stub is its own master: the layout routes table "t" to it.
		mux.HandleFunc("GET /master/layout", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, LayoutReply{Epoch: 1, Regions: []hbase.LayoutRegion{{Name: "r", Table: "t", Server: "stub"}},
				Addrs: map[string]string{"stub": srv.Addr()}})
		})
		if err := srv.Serve(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	srv := serve("127.0.0.1:0")
	addr := srv.Addr()
	c := stubClient(addr, 5*time.Second)
	c.master, c.Retries = addr, pooled-2
	ctx := within(t, 5*time.Second)
	var conns []*conn
	for i := 0; i < pooled; i++ {
		cn, err := c.pool.get(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, cn)
	}
	for _, cn := range conns {
		c.pool.put(cn)
	}
	srv.Close()
	serve(addr)
	if v, err := c.Get("t", "k"); err != nil || string(v) != "v" {
		t.Fatalf("get after the restart: %q, %v", v, err)
	}
}

// streamGoroutines counts the goroutines serving a stream.
func streamGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "rpc.(*Server).serveStream(")
}

// TestLoopbackGetAllocs gates the wire's heap cost: one Get through
// rpc.Client, a loopback stream, the ServerNode and the RegionServer
// allocates at most 20 objects, client and server together.
func TestLoopbackGetAllocs(t *testing.T) {
	cl := startCluster(t, 1, nil)
	if err := cl.c.Put("t", "k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := cl.c.Get("t", "k"); err != nil {
			t.Fatal(err)
		}
	}
	get() // dial the stream and warm the caches
	if n := testing.AllocsPerRun(500, get); n > 20 {
		t.Fatalf("loopback Get: %.0f allocs per op, want <= 20", n)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and, for a
// frame that decodes, to the decoder of its op and the scan reply
// decoder: nothing may panic, and a frame that decodes re-encodes to
// the same bytes.
func FuzzFrameDecode(f *testing.F) {
	key := appendStr(appendStr(nil, "t"), "k")
	reply := binary.LittleEndian.AppendUint32(nil, 2)
	for _, k := range []string{"a", "b"} {
		reply = binary.AppendUvarint(appendBytes(appendStr(reply, k), []byte("v")), 7)
		reply = append(reply, 0)
	}
	for _, seed := range []struct {
		kind    byte
		payload []byte
	}{
		{opGet, key},
		{opDelete, key},
		{opPut, appendBytes(key, []byte("value"))},
		{opScan, binary.AppendVarint(appendStr(appendStr(appendStr(nil, "t"), "a"), "z"), 20)},
		{statusOK, reply},
		{statusReroute, []byte("stale-epoch: client epoch 1 behind node epoch 2")},
	} {
		f.Add(sealFrame(append(beginFrame(nil, seed.kind, 1), seed.payload...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		again := sealFrame(append(beginFrame(nil, fr.kind, fr.epoch), fr.payload...))
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("frame re-encodes as %x, read from %x", again, data)
		}
		switch fr.kind {
		case opGet, opDelete:
			_, _, _ = decodeKey(fr.payload)
		case opPut:
			_, _, _, _ = decodePut(fr.payload)
		case opScan:
			_, _, _, _, _ = decodeScan(fr.payload)
		}
		_, _ = decodeEntries(fr.payload)
	})
}

// syncBuffer is a bytes.Buffer safe to write from the server's
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
