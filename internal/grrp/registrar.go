package grrp

import (
	"encoding/base64"
	"sync"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/softstate"
)

func encodeB64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func decodeB64(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

// Transport delivers an encoded GRRP message toward a destination address.
// Implementations may silently lose messages; GRRP is designed for that.
type Transport interface {
	Send(to string, payload []byte) error
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(to string, payload []byte) error

// Send invokes the function.
func (f TransportFunc) Send(to string, payload []byte) error { return f(to, payload) }

// Registration configures one sustained registration stream from a service
// to a directory (§4.3: "the provider then sustains a stream of
// registration messages to each directory").
type Registration struct {
	// Target is the transport address of the directory.
	Target string
	// Message template; IssuedAt/ValidUntil are stamped per send.
	Message Message
	// Interval between refresh messages.
	Interval time.Duration
	// TTL each message asserts; resilience to loss requires TTL > Interval
	// (several missed refreshes must elapse before expiry).
	TTL time.Duration
	// Keys, when non-nil, signs each message.
	Keys *gsi.KeyPair
}

// Registrar sustains registration streams. It is the sender half of GRRP.
type Registrar struct {
	transport Transport
	clock     softstate.Clock

	mu      sync.Mutex
	streams map[string]chan struct{} // key -> stop channel
	paused  map[string]bool
	sent    int
	wg      sync.WaitGroup
}

// NewRegistrar returns a registrar sending over the given transport.
func NewRegistrar(transport Transport, clock softstate.Clock) *Registrar {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &Registrar{
		transport: transport,
		clock:     clock,
		streams:   map[string]chan struct{}{},
		paused:    map[string]bool{},
	}
}

func streamKey(r Registration) string { return r.Target + "|" + r.Message.ServiceURL }

// Start begins (or restarts) a registration stream, sending immediately and
// then on every Interval tick until Stop or StopAll.
func (g *Registrar) Start(r Registration) {
	key := streamKey(r)
	g.mu.Lock()
	if old, ok := g.streams[key]; ok {
		close(old)
	}
	stop := make(chan struct{})
	g.streams[key] = stop
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			// The next tick is armed before the send, so a refresh that has
			// been seen to land already has its successor scheduled.
			tick := g.clock.After(r.Interval)
			g.sendOnce(r, key)
			select {
			case <-stop:
				return
			case <-tick:
			}
		}
	}()
}

func (g *Registrar) sendOnce(r Registration, key string) {
	g.mu.Lock()
	paused := g.paused[key]
	if !paused {
		g.sent++
	}
	g.mu.Unlock()
	if paused {
		return
	}
	now := g.clock.Now()
	msg := r.Message
	msg.IssuedAt = now
	msg.ValidUntil = now.Add(r.TTL)
	if r.Keys != nil {
		msg.Sign(r.Keys)
	}
	// Send errors are deliberately ignored: lost registrations are the
	// normal case the soft-state design absorbs.
	_ = g.transport.Send(r.Target, msg.Marshal())
}

// StartFanout begins one registration stream per target: the K-way
// replication path of a sharded directory tier, where a provider sustains
// its soft-state registration at every shard that owns its key. Each
// stream is independent — a partitioned owner misses refreshes and expires
// the registration there while the surviving owners stay fresh, which is
// exactly the per-directory soft-state semantics of §4.3 applied per
// replica.
func (g *Registrar) StartFanout(r Registration, targets []string) {
	for _, t := range targets {
		fr := r
		fr.Target = t
		g.Start(fr)
	}
}

// StopFanout ends the streams StartFanout began toward targets.
func (g *Registrar) StopFanout(r Registration, targets []string) {
	for _, t := range targets {
		fr := r
		fr.Target = t
		g.Stop(fr)
	}
}

// Pause suppresses sends for a stream without tearing it down, simulating a
// silent provider (used by failure-injection experiments).
func (g *Registrar) Pause(r Registration) { g.setPaused(streamKey(r), true) }

// Resume re-enables a paused stream.
func (g *Registrar) Resume(r Registration) { g.setPaused(streamKey(r), false) }

func (g *Registrar) setPaused(key string, v bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paused[key] = v
}

// Stop ends one registration stream. No de-registration message is sent:
// soft state at the directory simply expires (§4.3: "no reliable
// de-notify protocol message is required").
func (g *Registrar) Stop(r Registration) {
	key := streamKey(r)
	g.mu.Lock()
	if stop, ok := g.streams[key]; ok {
		close(stop)
		delete(g.streams, key)
	}
	g.mu.Unlock()
}

// StopAll ends every stream and waits for senders to exit.
func (g *Registrar) StopAll() {
	g.mu.Lock()
	for key, stop := range g.streams {
		close(stop)
		delete(g.streams, key)
	}
	g.mu.Unlock()
	g.wg.Wait()
}

// Sent returns the cumulative number of messages sent (unpaused ticks).
func (g *Registrar) Sent() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sent
}

// Receiver is the accepting half of GRRP: it validates incoming messages
// and maintains the soft-state registry that directories index from.
type Receiver struct {
	// Registry holds live registrations keyed by ServiceURL; payloads are
	// *Message values.
	Registry *softstate.Registry

	clock softstate.Clock

	// Trust, when non-nil, requires a valid signature on every message
	// (§7 registration security). Unsigned or badly signed messages are
	// rejected.
	Trust *gsi.TrustStore

	// Accept, when non-nil, applies admission policy after authentication:
	// it receives the message and its verified credential (nil when Trust
	// is nil) and reports whether the registration is accepted. This is
	// where a directory controls VO membership (§2.3).
	Accept func(*Message, *gsi.Credential) bool

	mu       sync.Mutex
	rejected int
}

// NewReceiver builds a receiver with its own registry.
func NewReceiver(clock softstate.Clock) *Receiver {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &Receiver{Registry: softstate.NewRegistry(clock), clock: clock}
}

// HandleDatagram ingests one datagram payload; it is shaped to plug
// directly into simnet.HandleDatagrams or a UDP read loop.
func (r *Receiver) HandleDatagram(from string, payload []byte) {
	msg, err := Unmarshal(payload)
	if err != nil {
		r.reject()
		return
	}
	r.Ingest(msg)
}

// Ingest validates and applies one message, reporting whether it was
// accepted into the registry.
func (r *Receiver) Ingest(msg *Message) bool {
	now := r.clock.Now()
	if err := msg.CheckTimes(now); err != nil {
		r.reject()
		return false
	}
	var cred *gsi.Credential
	if r.Trust != nil {
		var err error
		if cred, err = msg.VerifySignature(r.Trust, now); err != nil {
			r.reject()
			return false
		}
	}
	if r.Accept != nil && !r.Accept(msg, cred) {
		r.reject()
		return false
	}
	ttl := msg.TTL(now)
	if ttl <= 0 {
		r.reject()
		return false
	}
	r.Registry.Refresh(msg.ServiceURL, msg, ttl)
	return true
}

// IngestBatch validates a refresh storm's worth of messages and applies the
// accepted ones through one softstate.RefreshBatch — one lock acquisition,
// one expiry pass and one feed batch for the whole storm, so views derived
// from the registry (a directory's child table, its shard routing table)
// move once instead of once per message. It returns the number accepted.
func (r *Receiver) IngestBatch(msgs []*Message) int {
	now := r.clock.Now()
	batch := make([]softstate.Refreshment, 0, len(msgs))
	for _, msg := range msgs {
		if err := msg.CheckTimes(now); err != nil {
			r.reject()
			continue
		}
		var cred *gsi.Credential
		if r.Trust != nil {
			var err error
			if cred, err = msg.VerifySignature(r.Trust, now); err != nil {
				r.reject()
				continue
			}
		}
		if r.Accept != nil && !r.Accept(msg, cred) {
			r.reject()
			continue
		}
		ttl := msg.TTL(now)
		if ttl <= 0 {
			r.reject()
			continue
		}
		batch = append(batch, softstate.Refreshment{Key: msg.ServiceURL, Payload: msg, TTL: ttl})
	}
	return r.Registry.RefreshBatch(batch)
}

func (r *Receiver) reject() {
	r.mu.Lock()
	r.rejected++
	r.mu.Unlock()
}

// Rejected returns the count of messages refused for any reason.
func (r *Receiver) Rejected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rejected
}

// Close shuts down the underlying registry.
func (r *Receiver) Close() { r.Registry.Close() }
