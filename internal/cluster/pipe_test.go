package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/wire"
)

// testPipe returns the two ends of a fresh in-memory pipe with their
// concrete type, for white-box checks on parked calls.
func testPipe(t *testing.T) (*pipeConn, *pipeConn) {
	t.Helper()
	a, b := newPipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a.(*pipeConn), b.(*pipeConn)
}

// awaitParked blocks until some call is parked on h, so a test acts on a
// call that is really waiting rather than one that has not started.
func awaitParked(t *testing.T, h *pipeHalf) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		h.mu.Lock()
		n := h.waiters
		h.mu.Unlock()
		if n > 0 {
			return
		}
	}
	t.Fatal("no call parked within 10 s")
}

// result is one finished Read or Write.
type result struct {
	n   int
	err error
}

// goRead runs c.Read(buf) in a goroutine and delivers its result.
func goRead(c net.Conn, buf []byte) <-chan result {
	ch := make(chan result, 1)
	go func() {
		n, err := c.Read(buf)
		ch <- result{n, err}
	}()
	return ch
}

// goWrite runs c.Write(p) in a goroutine and delivers its result.
func goWrite(c net.Conn, p []byte) <-chan result {
	ch := make(chan result, 1)
	go func() {
		n, err := c.Write(p)
		ch <- result{n, err}
	}()
	return ch
}

func await(t *testing.T, ch <-chan result) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("call still parked after 10 s")
		return result{}
	}
}

// fill writes pipeCapacity bytes from a to b's side, so a's next Write
// parks.
func fill(t *testing.T, a net.Conn) {
	t.Helper()
	if n, err := a.Write(make([]byte, pipeCapacity)); n != pipeCapacity || err != nil {
		t.Fatalf("filling the pipe: %d, %v", n, err)
	}
}

// TestPipeConnConformance pins the net.Conn semantics the in-memory
// transport shares with net.Pipe and TCP (golang.org/x/net/nettest is
// not vendored, so the cases live here).
func TestPipeConnConformance(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"partial_reads", pipePartialReads},
		{"write_larger_than_capacity", pipeWriteLargerThanCapacity},
		{"buffered_data_before_EOF", pipeBufferedDataBeforeEOF},
		{"closed_end_errors", pipeClosedEndErrors},
		{"past_deadline", pipePastDeadline},
		{"expiring_deadline", pipeExpiringDeadline},
		{"deadline_change_wakes_parked_calls", pipeDeadlineChangeWakesParkedCalls},
		{"close_wakes_parked_calls", pipeCloseWakesParkedCalls},
		{"concurrent_use", pipeConcurrentUse},
	} {
		t.Run(c.name, c.run)
	}
}

func pipePartialReads(t *testing.T) {
	a, b := testPipe(t)
	msg := []byte("0123456789")
	if n, err := a.Write(msg); n != len(msg) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	var got []byte
	buf := make([]byte, 3)
	for len(got) < len(msg) {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n > len(buf) || n == 0 {
			t.Fatalf("read %d bytes into a %d-byte buffer", n, len(buf))
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, wrote %q", got, msg)
	}
}

// pipeWriteLargerThanCapacity writes more than the pipe holds: the
// write parks at capacity and completes as the peer drains, and the
// bytes arrive whole and in order.
func pipeWriteLargerThanCapacity(t *testing.T) {
	a, b := testPipe(t)
	msg := make([]byte, 2*pipeCapacity+123)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	w := goWrite(a, msg)
	awaitParked(t, a.out)
	var got []byte
	buf := make([]byte, 4096)
	for len(got) < len(msg) {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if r := await(t, w); r.n != len(msg) || r.err != nil {
		t.Fatalf("write returned %d, %v; want %d, nil", r.n, r.err, len(msg))
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("bytes arrived altered or out of order")
	}
}

func pipeBufferedDataBeforeEOF(t *testing.T) {
	for _, readerParked := range []bool{false, true} {
		a, b := testPipe(t)
		var r <-chan result
		buf := make([]byte, 16)
		if readerParked {
			r = goRead(b, buf)
			awaitParked(t, b.in)
		}
		a.Write([]byte("verdict"))
		a.Close()
		if r == nil {
			r = goRead(b, buf)
		}
		if got := await(t, r); got.err != nil || string(buf[:got.n]) != "verdict" {
			t.Fatalf("parked %v: read %q, %v; want the bytes written before Close", readerParked, buf[:got.n], got.err)
		}
		if n, err := b.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("parked %v: read after the drained close: %d, %v; want io.EOF", readerParked, n, err)
		}
	}
}

func pipeClosedEndErrors(t *testing.T) {
	a, b := testPipe(t)
	b.Write([]byte("unread"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	end := time.Now().Add(time.Hour)
	ops := map[string]func(c net.Conn) error{
		"Read":             func(c net.Conn) error { _, err := c.Read(make([]byte, 8)); return err },
		"Write":            func(c net.Conn) error { _, err := c.Write([]byte("x")); return err },
		"SetDeadline":      func(c net.Conn) error { return c.SetDeadline(end) },
		"SetReadDeadline":  func(c net.Conn) error { return c.SetReadDeadline(end) },
		"SetWriteDeadline": func(c net.Conn) error { return c.SetWriteDeadline(end) },
	}
	for name, op := range ops {
		if err := op(a); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("%s on the closed end: %v, want io.ErrClosedPipe", name, err)
		}
		if name == "Read" {
			continue // the peer reads io.EOF, below
		}
		if err := op(b); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("%s after the peer closed: %v, want io.ErrClosedPipe", name, err)
		}
	}
	if _, err := b.Read(make([]byte, 8)); err != io.EOF {
		t.Errorf("Read after the peer closed: %v, want io.EOF", err)
	}
	if a.in.buf != nil {
		t.Error("the closed end still holds the bytes it never read")
	}
}

func pipePastDeadline(t *testing.T) {
	a, b := testPipe(t)
	past := time.Now().Add(-time.Second)
	a.Write([]byte("buffered"))
	b.SetReadDeadline(past)
	if _, err := b.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	a.SetWriteDeadline(past)
	if n, err := a.Write([]byte("x")); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %d, %v, want 0, os.ErrDeadlineExceeded", n, err)
	}
	// Clearing the deadline makes the end usable again.
	b.SetReadDeadline(time.Time{})
	if n, err := b.Read(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("read after clearing the deadline: %d, %v", n, err)
	}
}

func pipeExpiringDeadline(t *testing.T) {
	a, b := testPipe(t)
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := b.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("parked read: %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	fill(t, a)
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	n, err := a.Write([]byte("over"))
	if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("parked write: %d, %v, want 0 and a timeout", n, err)
	}
	for _, h := range []*pipeHalf{a.out, b.in} {
		if h.timer == nil || h.timer.Stop() {
			t.Fatal("deadline timer missing, or still armed with no call parked")
		}
	}
}

// pipeDeadlineChangeWakesParkedCalls moves the deadline of a parked
// Read and a parked Write: into the past fails the call at once, and an
// extension keeps it waiting past the old deadline until it can finish.
func pipeDeadlineChangeWakesParkedCalls(t *testing.T) {
	t.Run("read", func(t *testing.T) {
		a, b := testPipe(t)
		r := goRead(b, make([]byte, 8))
		awaitParked(t, b.in)
		b.SetReadDeadline(time.Now().Add(-time.Second))
		if got := await(t, r); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("deadline moved into the past: %v", got.err)
		}

		b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		r = goRead(b, make([]byte, 8))
		awaitParked(t, b.in)
		b.SetReadDeadline(time.Now().Add(time.Hour))
		time.Sleep(60 * time.Millisecond)
		a.Write([]byte("late"))
		if got := await(t, r); got.err != nil || got.n != 4 {
			t.Fatalf("extended read: %d, %v", got.n, got.err)
		}
		if b.in.timer.Stop() {
			t.Fatal("the deadline timer stayed armed after the read returned")
		}
	})
	t.Run("write", func(t *testing.T) {
		a, b := testPipe(t)
		fill(t, a)
		w := goWrite(a, []byte("x"))
		awaitParked(t, a.out)
		a.SetWriteDeadline(time.Now().Add(-time.Second))
		if got := await(t, w); !errors.Is(got.err, os.ErrDeadlineExceeded) {
			t.Fatalf("deadline moved into the past: %v", got.err)
		}

		a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
		w = goWrite(a, []byte("x"))
		awaitParked(t, a.out)
		a.SetWriteDeadline(time.Now().Add(time.Hour))
		time.Sleep(60 * time.Millisecond)
		b.Read(make([]byte, 1))
		if got := await(t, w); got.err != nil || got.n != 1 {
			t.Fatalf("extended write: %d, %v", got.n, got.err)
		}
		if a.out.timer.Stop() {
			t.Fatal("the deadline timer stayed armed after the write returned")
		}
	})
}

// pipeCloseWakesParkedCalls closes either end under a parked Read
// and a parked Write.
func pipeCloseWakesParkedCalls(t *testing.T) {
	for _, closeLocal := range []bool{true, false} {
		a, b := testPipe(t)
		r := goRead(b, make([]byte, 8))
		awaitParked(t, b.in)
		fill(t, b)
		w := goWrite(b, []byte("x"))
		awaitParked(t, b.out)
		b.SetDeadline(time.Now().Add(time.Hour))
		wantRead := io.ErrClosedPipe
		if closeLocal {
			b.Close()
		} else {
			a.Close()
			wantRead = io.EOF
		}
		if got := await(t, r); got.err != wantRead {
			t.Errorf("local %v: parked read: %v, want %v", closeLocal, got.err, wantRead)
		}
		if got := await(t, w); got.n != 0 || got.err != io.ErrClosedPipe {
			t.Errorf("local %v: parked write: %d, %v, want 0, io.ErrClosedPipe", closeLocal, got.n, got.err)
		}
		for _, h := range []*pipeHalf{b.in, b.out} {
			if h.timer != nil && h.timer.Stop() {
				t.Errorf("local %v: a deadline timer outlived Close", closeLocal)
			}
		}
	}
}

// pipeConcurrentUse runs readers, writers, deadline changes and
// Close at once (run it under -race): every call must return, and reads
// must see a prefix of what was written, in order.
func pipeConcurrentUse(t *testing.T) {
	for i := 0; i < 200; i++ {
		a, b := newPipe()
		var wg sync.WaitGroup
		var got bytes.Buffer
		wg.Add(4)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := a.Write([]byte{byte(j)}); err != nil {
					return
				}
			}
			a.Close()
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 7)
			for {
				n, err := b.Read(buf)
				got.Write(buf[:n])
				if err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			b.SetDeadline(time.Now().Add(time.Hour))
			a.SetWriteDeadline(time.Now().Add(time.Hour))
		}()
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				b.Close()
			}
		}()
		wg.Wait()
		a.Close()
		b.Close()
		for j, c := range got.Bytes() {
			if c != byte(j) {
				t.Fatalf("pair %d: byte %d is %d", i, j, c)
			}
		}
	}
}

// BenchmarkPipeFrameExchange times one peer session's frames on a fresh
// in-memory connection — Hello, a compressed VoteBatch of 64 votes and
// Done up, a Verdict back — on the buffered pipe and, for comparison, on
// net.Pipe, an unbuffered rendezvous.
func BenchmarkPipeFrameExchange(b *testing.B) {
	const trials = 64
	var up [][]byte
	up = append(up, wire.Append(nil, &wire.Hello{Node: 1, K: 2, Trials: trials}))
	vb := &wire.VoteBatch{}
	for t := 0; t < trials; t++ {
		vb.Votes = append(vb.Votes, wire.BatchVote{Trial: uint32(t), Node: 1, Reject: t%3 == 0})
	}
	var enc wire.BatchEncoder
	batch, err := enc.Append(nil, vb, wire.TraceContext{}, true)
	if err != nil {
		b.Fatal(err)
	}
	up = append(up, batch, wire.Append(nil, &wire.Done{Node: 1}))
	verdict := wire.Append(nil, &wire.Verdict{Accepts: 1, Trials: trials})
	transports := []struct {
		name string
		pipe func() (net.Conn, net.Conn)
	}{
		{"buffered", newPipe},
		{"net.Pipe", net.Pipe},
	}
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			got := make([]byte, len(verdict))
			for i := 0; i < b.N; i++ {
				client, server := tr.pipe()
				served := make(chan error, 1)
				go func() {
					r := wire.NewReader(server)
					for range up {
						if _, err := r.ReadBody(); err != nil {
							served <- err
							return
						}
					}
					_, err := server.Write(verdict)
					server.Close()
					served <- err
				}()
				for _, f := range up {
					if _, err := client.Write(f); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := io.ReadFull(client, got); err != nil {
					b.Fatal(err)
				}
				client.Close()
				if err := <-served; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
