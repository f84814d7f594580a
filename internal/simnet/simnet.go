// Package simnet provides an in-process network simulator used to reproduce
// the paper's wide-area failure scenarios deterministically: Figure 1 and
// Figure 4 partition virtual organizations into disconnected fragments, and
// §4.3 discusses failure detection under lossy links.
//
// The simulator offers two transports mirroring what GRRP is specified
// against: a lossy datagram service (GRRP "is designed to run over an
// unreliable transport") and a reliable stream service carrying real LDAP
// bytes between in-process endpoints ("a reliable transport can also be
// used"). Partitions affect both: datagrams across a partition are dropped
// silently, new dials fail, and established streams are severed.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Addr is a simulated network address ("node" or "node:port").
type Addr string

// Network returns the address's network name.
func (Addr) Network() string { return "sim" }

// String returns the address text.
func (a Addr) String() string { return string(a) }

// DatagramHandler receives datagrams addressed to a node.
type DatagramHandler func(from string, payload []byte)

// Network simulates a set of named nodes with controllable partitions and
// per-link datagram loss. The zero value is not usable; call New.
type Network struct {
	mu sync.Mutex

	rng *rand.Rand

	// partition maps node -> partition ID; nodes in different partitions
	// cannot communicate. Unlisted nodes are in partition 0.
	partition map[string]int

	// defaultLoss is the datagram loss probability applied to every link
	// without a specific override.
	defaultLoss float64
	linkLoss    map[linkKey]float64

	listeners map[string]*listener // "node:port" -> listener
	conns     map[*pipeConn]struct{}
	handlers  map[string]DatagramHandler

	// Stats
	datagramsSent    int
	datagramsDropped int
}

type linkKey struct{ a, b string }

func normLink(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// New returns a network with deterministic randomness from seed.
func New(seed int64) *Network {
	return &Network{
		rng:       rand.New(rand.NewSource(seed)),
		partition: map[string]int{},
		linkLoss:  map[linkKey]float64{},
		listeners: map[string]*listener{},
		conns:     map[*pipeConn]struct{}{},
		handlers:  map[string]DatagramHandler{},
	}
}

// Errors.
var (
	ErrUnreachable   = errors.New("simnet: destination unreachable (partitioned)")
	ErrNoListener    = errors.New("simnet: connection refused")
	ErrListenerInUse = errors.New("simnet: address already in use")
)

// SetPartitions divides the network: each group becomes one partition, and
// any node not listed joins partition 0 alongside group zero. Established
// stream connections crossing a partition boundary are severed immediately,
// modeling Figure 4's "fault-partition".
func (n *Network) SetPartitions(groups ...[]string) {
	n.mu.Lock()
	n.partition = map[string]int{}
	for i, g := range groups {
		for _, node := range g {
			n.partition[node] = i
		}
	}
	var severed []*pipeConn
	for c := range n.conns {
		if !n.connectedLocked(c.local, c.remote) {
			severed = append(severed, c)
			delete(n.conns, c)
		}
	}
	n.mu.Unlock()
	for _, c := range severed {
		c.sever()
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.SetPartitions() }

// Connected reports whether two nodes can currently communicate.
func (n *Network) Connected(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connectedLocked(a, b)
}

func (n *Network) connectedLocked(a, b string) bool {
	return n.partition[a] == n.partition[b]
}

// SetLoss sets the default datagram loss probability for all links.
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultLoss = p
}

// SetLinkLoss overrides the loss probability between two nodes
// (direction-independent).
func (n *Network) SetLinkLoss(a, b string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLoss[normLink(a, b)] = p
}

// Stats returns cumulative datagram counts (sent includes dropped).
func (n *Network) Stats() (sent, dropped int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.datagramsSent, n.datagramsDropped
}

// HandleDatagrams registers the datagram receiver for a node, replacing any
// prior handler. A nil handler unregisters.
func (n *Network) HandleDatagrams(node string, h DatagramHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.handlers, node)
		return
	}
	n.handlers[node] = h
}

// SendDatagram delivers payload from one node to another, subject to
// partition and loss. It reports whether the datagram was delivered to a
// handler; callers implementing soft-state protocols ignore the result —
// that is the point — but experiments use it for ground truth.
func (n *Network) SendDatagram(from, to string, payload []byte) bool {
	n.mu.Lock()
	n.datagramsSent++
	if !n.connectedLocked(from, to) {
		n.datagramsDropped++
		n.mu.Unlock()
		return false
	}
	loss := n.defaultLoss
	if p, ok := n.linkLoss[normLink(from, to)]; ok {
		loss = p
	}
	if loss > 0 && n.rng.Float64() < loss {
		n.datagramsDropped++
		n.mu.Unlock()
		return false
	}
	h := n.handlers[to]
	if h == nil {
		n.datagramsDropped++
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()
	// Deliver synchronously: datagram handlers are required to be fast and
	// non-blocking, which keeps simulations deterministic.
	cp := append([]byte(nil), payload...)
	h(from, cp)
	return true
}

// Listen opens a stream listener at node:port.
func (n *Network) Listen(node, port string) (net.Listener, error) {
	addr := node + ":" + port
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("%w: %s", ErrListenerInUse, addr)
	}
	l := &listener{net: n, node: node, addr: addr, accept: make(chan net.Conn, 16), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects from a node to a listener address ("node:port"), failing if
// the nodes are partitioned or nothing listens there.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	toNode, _, err := net.SplitHostPort(to)
	if err != nil {
		toNode = to
	}
	n.mu.Lock()
	if !n.connectedLocked(from, toNode) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	l, ok := n.listeners[to]
	if !ok || l.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoListener, to)
	}
	c1, c2 := net.Pipe()
	clientConn := &pipeConn{Conn: c1, net: n, local: from, remote: toNode,
		localAddr: Addr(from), remoteAddr: Addr(to)}
	serverConn := &pipeConn{Conn: c2, net: n, local: toNode, remote: from,
		localAddr: Addr(to), remoteAddr: Addr(from)}
	clientConn.peer, serverConn.peer = serverConn, clientConn
	n.conns[clientConn] = struct{}{}
	n.conns[serverConn] = struct{}{}
	n.mu.Unlock()

	select {
	case l.accept <- serverConn:
		return clientConn, nil
	case <-l.done:
		clientConn.Close()
		return nil, fmt.Errorf("%w: %s", ErrNoListener, to)
	// mdslint:ignore clockcheck real-time backstop for a wedged accept queue; a simulated clock may never advance while dial is parked here
	case <-time.After(5 * time.Second):
		clientConn.Close()
		return nil, fmt.Errorf("%w: accept queue full at %s", ErrNoListener, to)
	}
}

type listener struct {
	net    *Network
	node   string
	addr   string
	accept chan net.Conn
	// done closes with the listener. accept itself never closes: a Dial
	// that found the listener open may still be sending on it.
	done   chan struct{}
	closed bool // guarded by net.mu, the lock Dial reads it under
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.net.mu.Lock()
	if l.closed {
		l.net.mu.Unlock()
		return nil
	}
	l.closed = true
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	close(l.done)
	return nil
}

func (l *listener) Addr() net.Addr { return Addr(l.addr) }

// pipeConn wraps one end of a net.Pipe with simulated addresses and
// partition-severing support.
type pipeConn struct {
	net.Conn
	net        *Network
	peer       *pipeConn
	local      string
	remote     string
	localAddr  Addr
	remoteAddr Addr

	once sync.Once
}

func (c *pipeConn) LocalAddr() net.Addr  { return c.localAddr }
func (c *pipeConn) RemoteAddr() net.Addr { return c.remoteAddr }

func (c *pipeConn) Close() error {
	var err error
	c.once.Do(func() {
		c.net.mu.Lock()
		delete(c.net.conns, c)
		delete(c.net.conns, c.peer)
		c.net.mu.Unlock()
		err = c.Conn.Close()
		c.peer.Conn.Close()
	})
	return err
}

// sever closes both pipe halves without lock re-entry (caller already
// removed the conn from the registry).
func (c *pipeConn) sever() {
	c.once.Do(func() {
		c.Conn.Close()
		c.peer.Conn.Close()
	})
}
