package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// serving is the TCP core both servers embed: the listener, the set of
// open connections, the accept loop, Addr and closing. Server adds
// MaxConns shedding and the session drain on top; MemberServer adds
// nothing but its handler.
type serving struct {
	// Logf, when set, receives connection-level diagnostics, the accept
	// loop's retries and its terminal exit included.
	Logf func(format string, args ...interface{})

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	loop     sync.WaitGroup // the accept loop; stop waits for it
}

// serve registers ln and starts the accept loop on it. Each accepted
// connection joins the set and runs handle on its own goroutine, then is
// closed and leaves the set. When the set already holds limit connections
// (limit > 0) the connection goes to shed instead, outside the set.
func (c *serving) serve(ln net.Listener, limit int, handle, shed func(net.Conn)) net.Addr {
	c.mu.Lock()
	c.listener = ln
	if c.conns == nil {
		c.conns = make(map[net.Conn]struct{})
	}
	c.mu.Unlock()
	c.loop.Add(1)
	go func() {
		defer c.loop.Done()
		c.acceptLoop(ln, limit, handle, shed)
	}()
	return ln.Addr()
}

// acceptLoop accepts until the listener fails for good. After stop it
// returns quietly. A listener closed from outside, or an error that is
// neither a timeout nor temporary, ends it with one logged terminal exit,
// so a server whose listener died says so instead of going silent.
// Transient failures (ECONNABORTED, fd pressure, injected faults) are
// logged and retried after 10ms.
func (c *serving) acceptLoop(ln net.Listener, limit int, handle, shed func(net.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			var ne net.Error
			switch {
			case closed:
				return
			case errors.Is(err, net.ErrClosed):
				c.logf("accept: listener closed externally (terminal)")
				return
			case errors.As(err, &ne) && (ne.Timeout() || isTemporary(ne)):
				c.logf("accept: %v (retrying)", err)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			c.logf("accept: %v (terminal)", err)
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		if limit > 0 && len(c.conns) >= limit {
			c.mu.Unlock()
			go shed(conn)
			continue
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				c.mu.Lock()
				delete(c.conns, conn)
				c.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// isTemporary reports whether err advertises itself as a transient
// condition. net.Error.Temporary is deprecated for general use, but for
// accept-loop errors specifically it still means exactly what we need:
// ECONNABORTED-class failures that the next Accept may not see.
func isTemporary(err error) bool {
	t, ok := err.(interface{ Temporary() bool })
	return ok && t.Temporary()
}

// Addr returns the listening address; it errors before Listen or Serve.
func (c *serving) Addr() (net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.listener == nil {
		return nil, fmt.Errorf("transport: server is not listening")
	}
	return c.listener.Addr(), nil
}

// stop marks the server closed, closes the listener and every connection
// keep does not claim (keep runs under the lock; nil claims none), and
// waits for the accept loop to return. It reports false, doing nothing,
// when the server was already closed.
func (c *serving) stop(keep func(net.Conn) bool) (bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false, nil
	}
	c.closed = true
	var err error
	if c.listener != nil {
		err = c.listener.Close()
	}
	for conn := range c.conns {
		if keep == nil || !keep(conn) {
			conn.Close()
		}
	}
	c.mu.Unlock()
	c.loop.Wait()
	return true, err
}

func (c *serving) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
