package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/group"
)

// The accept-loop policy is the serving core's, so every case runs
// against both servers.

type acceptServer interface {
	Serve(net.Listener) net.Addr
	Close() error
}

var acceptServers = []struct {
	name string
	// start builds the server with logf as its Logf.
	start func(logf func(string, ...interface{})) acceptServer
	// roundTrip runs one exchange against the server at addr.
	roundTrip func(t *testing.T, addr string)
}{
	{
		name: "server",
		start: func(logf func(string, ...interface{})) acceptServer {
			s := NewServer(core.NewLSP(dataset.Synthetic(5, 300), geo.UnitRect))
			s.Logf = logf
			return s
		},
		roundTrip: func(t *testing.T, addr string) {
			g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
				[]geo.Point{{X: 0.3, Y: 0.7}, {X: 0.4, Y: 0.8}}, rand.New(rand.NewSource(25)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Run(dialOne(t, addr), nil); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "member",
		start: func(logf func(string, ...interface{})) acceptServer {
			s := NewMemberServer(echoHandler{})
			s.Logf = logf
			return s
		},
		roundTrip: func(t *testing.T, addr string) {
			link := group.DialMember(addr)
			defer link.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := link.Send(ctx, core.FrameContribReq, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := link.Recv(ctx); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// exitLog collects the terminal accept-loop exits a server logs.
type exitLog chan string

func (l exitLog) logf(format string, args ...interface{}) {
	if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "(terminal)") {
		select {
		case l <- msg:
		default:
		}
	}
}

// wait returns the first terminal exit logged, failing after 5s.
func (l exitLog) wait(t *testing.T) string {
	t.Helper()
	select {
	case msg := <-l:
		return msg
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal accept exit logged")
		return ""
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestAcceptExitOnClose: a deliberate Close ends the accept loop quietly.
func TestAcceptExitOnClose(t *testing.T) {
	for _, k := range acceptServers {
		t.Run(k.name, func(t *testing.T) {
			exits := make(exitLog, 4)
			srv := k.start(exits.logf)
			srv.Serve(listen(t))
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv.Close() // idempotent, and still quiet
			// Close returns once the accept loop has: anything it logged
			// is in the channel by now.
			select {
			case msg := <-exits:
				t.Fatalf("deliberate Close logged a terminal exit: %q", msg)
			default:
			}
		})
	}
}

// TestAcceptExitOnListenerDeath: a listener closed from outside (not by
// Close) ends the loop with one logged terminal exit instead of a silent
// stop.
func TestAcceptExitOnListenerDeath(t *testing.T) {
	for _, k := range acceptServers {
		t.Run(k.name, func(t *testing.T) {
			exits := make(exitLog, 4)
			srv := k.start(exits.logf)
			ln := listen(t)
			srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			ln.Close()
			if msg := exits.wait(t); !strings.Contains(msg, "closed externally") {
				t.Fatalf("terminal exit %q does not name the external close", msg)
			}
			srv.Close() // returns once the accept loop has
			select {
			case msg := <-exits:
				t.Fatalf("a second terminal exit: %q", msg)
			default:
			}
		})
	}
}

// brokenListener's Accept fails at once with an error that is neither a
// timeout nor temporary, counting the calls.
type brokenListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *brokenListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	return nil, errors.New("accept: descriptor table corrupt")
}

// TestAcceptExitOnTerminalError: a non-temporary accept error stops the
// loop after one call, logged, instead of a retry every 10ms forever.
func TestAcceptExitOnTerminalError(t *testing.T) {
	for _, k := range acceptServers {
		t.Run(k.name, func(t *testing.T) {
			exits := make(exitLog, 4)
			srv := k.start(exits.logf)
			ln := &brokenListener{Listener: listen(t)}
			srv.Serve(ln)
			exits.wait(t)
			time.Sleep(50 * time.Millisecond) // room for a retry, were there one
			srv.Close()
			if n := ln.accepts.Load(); n != 1 {
				t.Fatalf("Accept called %d times, want 1", n)
			}
		})
	}
}

// TestAcceptFailureResilience: transient accept failures (injected via
// faultnet) must not kill the accept loop.
func TestAcceptFailureResilience(t *testing.T) {
	for _, k := range acceptServers {
		t.Run(k.name, func(t *testing.T) {
			exits := make(exitLog, 4)
			srv := k.start(exits.logf)
			addr := srv.Serve(faultnet.WrapListener(listen(t), 3)).String()
			t.Cleanup(func() { srv.Close() })
			k.roundTrip(t, addr)
			select {
			case msg := <-exits:
				t.Fatalf("transient accept failure ended the loop: %q", msg)
			default:
			}
		})
	}
}
