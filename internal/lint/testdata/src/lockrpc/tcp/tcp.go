// Package tcp holds the implementation of peers.Peers that performs
// network I/O; loading it is what marks peers.Peers.Ping.
package tcp

import (
	"sync"
	"time"

	"lockrpc/peers"
)

type conn struct{}

func (conn) Write(p []byte) (int, error)   { return 0, nil }
func (conn) SetDeadline(t time.Time) error { return nil }

type client struct {
	mu sync.Mutex
	c  conn
}

func (cl *client) Ping(string) error {
	_, err := cl.c.Write(nil)
	return err
}

func (cl *client) Name() string { return "tcp" }

// badThrough holds a lock across a call made through the interface,
// from the implementing side of the seam.
func (cl *client) badThrough(p peers.Peers) {
	cl.mu.Lock() // want `held across network I/O`
	defer cl.mu.Unlock()
	p.Ping("x")
}

var _ peers.Peers = (*client)(nil)
