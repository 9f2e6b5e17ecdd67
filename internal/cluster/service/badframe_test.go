package service

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
)

// TestUndecodableFrameCountsOneBadFrame pins the service's share of the
// one violation rule: a handshaken peer whose next frame does not decode
// (here, a wrong version byte) counts exactly one bad frame on its
// session's referee and loses its connection, as on a solo referee.
func TestUndecodableFrameCountsOneBadFrame(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(Config{Obs: reg})
	l := cluster.NewPipeListener()
	go svc.Serve(l)
	defer svc.Close()

	const k, trials = 4, 2
	c, err := Open(l.Dial, &wire.SessionOpen{Tenant: 1, K: k, Trials: trials, Rule: wire.RuleAND})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc.mu.Lock()
	slot := svc.sessions[c.Session()].slot
	svc.mu.Unlock()
	badFrames := reg.Counter(fmt.Sprintf("cluster.bad_frames;session=%d", slot))

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrameSession(conn, &wire.Hello{Node: 0, K: k, Trials: trials}, c.Session(), wire.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	bad := wire.AppendSession(nil, &wire.Vote{Trial: 0, Node: 0}, c.Session(), wire.TraceContext{})
	bad[4] = wire.Version + 1
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the undecodable frame: err = %v, want io.EOF (connection closed)", err)
	}
	if got := badFrames.Value(); got != 1 {
		t.Fatalf("session counted %d bad frames, want 1", got)
	}
}
