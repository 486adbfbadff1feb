package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"ppgnn/internal/group"
)

// memberReadTimeout bounds the wait for each request frame on a member
// connection, so a dead coordinator cannot pin a goroutine forever.
const memberReadTimeout = 30 * time.Second

// MemberServer exposes one group member over TCP: each accepted
// connection runs the request/reply loop of group.ServeConn against the
// member's Handler. It is the member-phone side of a distributed group
// session — the coordinator dials it with a group.NetLink.
//
// It accepts and logs exactly as Server does (Logf receives its
// diagnostics and the accept loop's terminal exit); a panic while serving
// one connection is recovered and ends only that connection, and each
// request frame's wait is bounded.
type MemberServer struct {
	serving
	Handler group.Handler
}

// NewMemberServer wraps a member handler.
func NewMemberServer(h group.Handler) *MemberServer {
	return &MemberServer{Handler: h}
}

// Listen starts accepting on addr and returns the bound address.
func (s *MemberServer) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: member listen: %w", err)
	}
	return s.Serve(ln), nil
}

// Serve starts accepting on an existing listener (tests wrap one in
// faultnet) and returns its address.
func (s *MemberServer) Serve(ln net.Listener) net.Addr {
	return s.serve(ln, 0, s.serveConn, nil)
}

func (s *MemberServer) serveConn(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("member conn %s: panic: %v", conn.RemoteAddr(), r)
		}
	}()
	err := group.ServeConn(timeoutConn{conn}, s.Handler)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		s.logf("member conn %s: %v", conn.RemoteAddr(), err)
	}
}

// Close stops the listener and closes every open connection. Members
// hold no session-critical state a drain would protect — a coordinator
// retry against a restarted member gets a byte-identical reply — so
// unlike Server.Close this does not wait for sessions.
func (s *MemberServer) Close() error {
	_, err := s.stop(nil)
	return err
}

// timeoutConn arms a fresh memberReadTimeout deadline before every read,
// bounding the per-frame wait of the member's serve loop.
type timeoutConn struct{ net.Conn }

func (c timeoutConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(memberReadTimeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}
