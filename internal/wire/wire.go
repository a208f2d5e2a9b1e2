// Package wire implements the network layer of the PEMS Environment
// Resource Manager (Gripay et al., EDBT 2010, Figure 1): a TCP protocol for
// remote service invocation and node description, replacing the paper's
// UPnP stack. A Local Environment Resource Manager exposes its registered
// services through a wire.Server; the core ERM reaches them through
// wire.Client proxies that satisfy service.Service, making remote services
// indistinguishable from local ones to the algebra.
//
// Framing: gob-encoded, ID-tagged request/response messages over a
// persistent connection with full multiplexing — many invocations may be in
// flight concurrently on one connection (the server handles each request in
// its own goroutine), which the parallel invocation operator exploits.
package wire

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
)

// Version is the wire protocol version stamped on every request. Version 2
// added the trace-context fields (Ver, TraceID, SpanID); version 3 added the
// "batch" op carrying many invocations per round trip (Items/ItemResults);
// version 4 added the "announce" op carrying discovery presence frames
// (Announces), turning wire links into a federation bus between pemsd
// nodes. Interop is bidirectional without negotiation because gob ignores
// fields the receiver does not know and zero-values fields the sender did
// not write: a v1 server sees a v2 request as a v1 request, and a v2 server
// sees a v1 request with TraceID 0 — the "not traced" sentinel. A pre-v3
// server answers a batch frame with "unknown op", which the client takes as
// the signal to fall back to per-item invokes for the rest of the
// connection; a pre-v4 server answers an announce frame the same way, and
// the sender simply stops relaying to it.
const Version = 4

// Wire metrics: round-trip latency and outcome counters, plus connection
// churn (dials cover both the first connect and every redial).
var (
	obsWireLatency  = obs.Default.Histogram("wire.roundtrip.latency")
	obsWireCalls    = obs.Default.Counter("wire.roundtrip.calls")
	obsWireRetries  = obs.Default.Counter("wire.roundtrip.retries")
	obsWireFailures = obs.Default.Counter("wire.roundtrip.failures")
	obsWireTimeouts = obs.Default.Counter("wire.roundtrip.timeouts")
	obsWireDials    = obs.Default.Counter("wire.dials")
	obsWireConnLost = obs.Default.Counter("wire.connections_lost")

	// Batch-frame metrics: frames sent, invocations they carried, and
	// frames degraded to per-item invokes against pre-v3 peers.
	obsWireBatchCalls     = obs.Default.Counter("wire.batch.calls")
	obsWireBatchItems     = obs.Default.Counter("wire.batch.items")
	obsWireBatchFallbacks = obs.Default.Counter("wire.batch.fallbacks")
)

// Value is the wire form of value.Value (gob needs exported fields).
type Value struct {
	Kind uint8
	B    bool
	I    int64
	F    float64
	S    string
	Blob []byte
}

// EncodeValue converts a value to wire form.
func EncodeValue(v value.Value) Value {
	w := Value{Kind: uint8(v.Kind())}
	switch v.Kind() {
	case value.Bool:
		w.B = v.Bool()
	case value.Int:
		w.I = v.Int()
	case value.Real:
		w.F = v.Real()
	case value.String:
		w.S = v.Str()
	case value.Service:
		w.S = v.ServiceRef()
	case value.Blob:
		w.Blob = v.Blob()
	}
	return w
}

// DecodeValue converts a wire value back.
func DecodeValue(w Value) (value.Value, error) {
	switch value.Kind(w.Kind) {
	case value.Null:
		return value.NewNull(), nil
	case value.Bool:
		return value.NewBool(w.B), nil
	case value.Int:
		return value.NewInt(w.I), nil
	case value.Real:
		return value.NewReal(w.F), nil
	case value.String:
		return value.NewString(w.S), nil
	case value.Service:
		return value.NewService(w.S), nil
	case value.Blob:
		return value.NewBlob(w.Blob), nil
	}
	return value.Value{}, fmt.Errorf("wire: unknown value kind %d", w.Kind)
}

// EncodeTuple converts a tuple to wire form.
func EncodeTuple(t value.Tuple) []Value {
	out := make([]Value, len(t))
	for i, v := range t {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeTuple converts a wire tuple back.
func DecodeTuple(ws []Value) (value.Tuple, error) {
	out := make(value.Tuple, len(ws))
	for i, w := range ws {
		v, err := DecodeValue(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Request is the union of client→server messages.
type Request struct {
	// ID correlates the response on a multiplexed connection.
	ID uint64
	// Ver is the sender's protocol version (0 from pre-versioning peers).
	Ver int
	// Op is "invoke" or "describe".
	Op string
	// Invoke fields.
	Proto string
	Ref   string
	Input []Value
	At    int64
	// Trace context (since Version 2): the client's trace and β span IDs,
	// letting the server record its execution as a child span of the same
	// trace. 0 means the invocation is not traced.
	TraceID uint64
	SpanID  uint64
	// Items carries a batch of invocations (Op "batch", since Version 3);
	// the per-request Proto/Ref/Input fields are unused for that op.
	Items []BatchItem
	// Announces carries discovery presence frames (Op "announce", since
	// Version 4).
	Announces []Announce
}

// Announce kinds, mirroring discovery's Alive/Bye (wire cannot import the
// discovery package — it sits below it).
const (
	AnnounceAlive uint8 = iota
	AnnounceBye
)

// Announce is one discovery presence frame relayed between pemsd nodes
// (Op "announce", since Version 4): a node is alive at an address hosting
// the listed services, or says goodbye. Origin+Seq implement relay loop
// suppression — Seq increases monotonically per origin, so a receiver drops
// any frame at or below the last sequence it saw from that origin. From
// names the immediate sender (≠ Origin on relayed frames), letting a
// relaying node skip echoing a frame straight back to whoever sent it.
type Announce struct {
	Kind     uint8
	Node     string // the node this frame is about (the origin)
	Addr     string // its wire address
	Seq      uint64 // per-origin monotonic sequence number
	From     string // immediate sender of this frame
	Services []ServiceInfo
}

// BatchItem is one invocation within a batch frame. Carrying proto and ref
// per item keeps the frame general (a future planner may mix refs), though
// the current batch planner groups by (proto, ref) before dispatch.
type BatchItem struct {
	Proto string
	Ref   string
	Input []Value
	At    int64
}

// BatchItemResult is one item's outcome within a batch response: results
// are positional (Items[i] → ItemResults[i]) and per item, so one bad tuple
// does not fail the frame.
type BatchItemResult struct {
	Err  string
	Rows [][]Value
}

// ServiceInfo describes one hosted service.
type ServiceInfo struct {
	Ref        string
	Prototypes []string
}

// Response is the union of server→client messages.
type Response struct {
	ID          uint64
	Err         string
	Rows        [][]Value         // invoke
	Node        string            // describe
	Services    []ServiceInfo     // describe
	ItemResults []BatchItemResult // batch (since Version 3)
}

// DefaultServerBatchParallelism bounds how many items of one batch frame
// the server executes concurrently.
const DefaultServerBatchParallelism = 8

// Server exposes a Local ERM's services over TCP.
type Server struct {
	node string
	reg  *service.Registry

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	done     chan struct{}
	batchPar int

	// Overload limits (see overload.go): maxInFlight caps concurrently
	// executing requests (0 = unlimited); readTimeout drops connections
	// idle between requests; writeTimeout bounds each response write.
	maxInFlight  int
	readTimeout  time.Duration
	writeTimeout time.Duration
	inFlight     atomic.Int64

	// announceHandler receives incoming v4 announce frames (the WireBus
	// attaches itself here). Nil servers answer announce frames with
	// "unknown op", exactly like a pre-v4 peer.
	announceHandler atomic.Pointer[func([]Announce)]
}

// NewServer wraps a registry of local services under a node name.
func NewServer(node string, reg *service.Registry) *Server {
	return &Server{node: node, reg: reg, conns: make(map[net.Conn]bool), done: make(chan struct{}), batchPar: DefaultServerBatchParallelism}
}

// SetBatchParallelism bounds concurrent execution of one batch frame's
// items. Values < 2 execute items sequentially.
func (s *Server) SetBatchParallelism(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	s.batchPar = n
}

// Node returns the node name.
func (s *Server) Node() string { return s.node }

// SetAnnounceHandler installs the receiver for incoming v4 announce frames
// (nil uninstalls it, making the server answer them with "unknown op" like
// a pre-v4 peer). The handler runs on the per-request goroutine and must
// not block indefinitely.
func (s *Server) SetAnnounceHandler(h func([]Announce)) {
	if h == nil {
		s.announceHandler.Store(nil)
		return
	}
	s.announceHandler.Store(&h)
}

// Listen starts serving on the given address ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: %s: %w", s.node, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the server and drops all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	default:
		close(s.done)
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var writeMu sync.Mutex
	send := func(resp *Response, writeT time.Duration) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if writeT > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(writeT))
		}
		_ = enc.Encode(resp)
	}
	for {
		s.mu.Lock()
		readT, writeT, maxIF := s.readTimeout, s.writeTimeout, s.maxInFlight
		s.mu.Unlock()
		if readT > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(readT))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Admission check before any work: over the cap, the request is
		// answered with a fast typed rejection — no registry call, no
		// goroutine, and the client's degradation policy takes it from
		// there.
		if maxIF > 0 && s.inFlight.Add(1) > int64(maxIF) {
			s.inFlight.Add(-1)
			obsWireServerOverload.Inc()
			send(&Response{
				ID:  req.ID,
				Err: fmt.Sprintf("wire: %s: %v: %d requests in flight", s.node, resilience.ErrOverloaded, maxIF),
			}, writeT)
			continue
		}
		wg.Add(1)
		go func(req Request, counted bool) {
			defer wg.Done()
			resp := s.handle(&req)
			// Free the slot before replying: a client that sends its next
			// request as soon as this reply lands must find it free.
			if counted {
				s.inFlight.Add(-1)
			}
			resp.ID = req.ID
			send(resp, writeT)
		}(req, maxIF > 0)
	}
}

func (s *Server) handle(req *Request) *Response {
	switch req.Op {
	case "describe":
		// Only locally hosted services are exported: provider-backed entries
		// were discovered from OTHER nodes, and re-exporting them would let
		// membership gossip turn every node into a claimed provider of
		// everything (invocation forwarding chains, ambiguous ownership).
		resp := &Response{Node: s.node}
		for _, ref := range s.reg.LocalRefs() {
			svc, err := s.reg.Lookup(ref)
			if err != nil {
				continue
			}
			resp.Services = append(resp.Services, ServiceInfo{Ref: ref, Prototypes: svc.PrototypeNames()})
		}
		return resp

	case "invoke":
		input, err := DecodeTuple(req.Input)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		// Resume the client's trace (nil when the invocation is unsampled
		// or the peer predates trace propagation): the server-side
		// execution records as a child of the client's round-trip span.
		span := trace.Default.StartRemote("wire.server", req.TraceID, req.SpanID)
		span.SetAttr("node", s.node)
		span.SetAttr("proto", req.Proto)
		span.SetAttr("ref", req.Ref)
		rows, err := s.reg.InvokeCtx(trace.ContextWith(context.Background(), span), req.Proto, req.Ref, input, service.Instant(req.At))
		if err != nil {
			span.SetAttr("error", err.Error())
			span.Finish()
			return &Response{Err: err.Error()}
		}
		span.SetAttrInt("rows", int64(len(rows)))
		span.Finish()
		resp := &Response{Rows: make([][]Value, len(rows))}
		for i, row := range rows {
			resp.Rows[i] = EncodeTuple(row)
		}
		return resp

	case "batch":
		return s.handleBatch(req)

	case "announce":
		h := s.announceHandler.Load()
		if h == nil {
			break // no bus attached: answer like a pre-v4 peer
		}
		(*h)(req.Announces)
		// The response names this node so the announcing dialer learns the
		// addr → node mapping without a separate describe round trip.
		return &Response{Node: s.node}
	}
	return &Response{Err: fmt.Sprintf("wire: unknown op %q", req.Op)}
}

// handleBatch executes a v3 batch frame: every item independently, on a
// bounded worker pool, with per-item errors so one bad tuple cannot fail
// its neighbours. Results are positional.
func (s *Server) handleBatch(req *Request) *Response {
	span := trace.Default.StartRemote("wire.server.batch", req.TraceID, req.SpanID)
	span.SetAttr("node", s.node)
	span.SetAttrInt("items", int64(len(req.Items)))
	defer span.Finish()
	results := make([]BatchItemResult, len(req.Items))
	run := func(i int) {
		item := req.Items[i]
		input, err := DecodeTuple(item.Input)
		if err != nil {
			results[i].Err = err.Error()
			return
		}
		rows, err := s.reg.InvokeCtx(trace.ContextWith(context.Background(), span), item.Proto, item.Ref, input, service.Instant(item.At))
		if err != nil {
			results[i].Err = err.Error()
			return
		}
		enc := make([][]Value, len(rows))
		for j, row := range rows {
			enc[j] = EncodeTuple(row)
		}
		results[i].Rows = enc
	}
	s.mu.Lock()
	workers := s.batchPar
	s.mu.Unlock()
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
		for i := range req.Items {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range req.Items {
			run(i)
		}
	}
	return &Response{ItemResults: results}
}

// Client is a multiplexed connection to a Local ERM node: any number of
// requests may be in flight concurrently; responses are matched by ID.
//
// The connection self-heals: when a round trip finds the connection lost
// (dial failure, write failure, or the read loop dying mid-request), the
// client redials with capped exponential backoff and retries, up to a
// bounded number of attempts. A request that TIMED OUT is never retried —
// it may have reached the server, and replaying it could duplicate an
// active invocation's side effect.
type Client struct {
	addr    string
	timeout time.Duration

	// Reconnection policy (SetReconnect): total attempts per round trip
	// and the capped backoff between them.
	attempts    int
	backoffBase time.Duration
	backoffMax  time.Duration

	mu     sync.Mutex // guards cur/nextID and writes
	cur    *clientConn
	nextID uint64
	closed bool

	// batchUnsupported latches once a peer answers a batch frame with
	// "unknown op": every later batch degrades straight to per-item
	// invokes without re-probing (the peer will not upgrade mid-flight).
	batchUnsupported atomic.Bool
}

// clientConn is one physical connection's state. Keeping the pending map
// per connection means a dying read loop fails exactly ITS in-flight
// requests — never the replacement connection's — and a reconnect can
// never orphan a waiter.
type clientConn struct {
	conn    net.Conn
	enc     *gob.Encoder
	pending map[uint64]chan *Response
}

// Dial connects to a node. The timeout bounds the dial, every write, and
// each round trip's wait for a response.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout, attempts: 3, backoffBase: 5 * time.Millisecond, backoffMax: 250 * time.Millisecond}
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SetReconnect tunes the round-trip reconnection policy: total attempts
// (values < 1 disable retrying entirely) and the base/cap of the
// exponential backoff between them.
func (c *Client) SetReconnect(attempts int, base, max time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	c.attempts = attempts
	if base > 0 {
		c.backoffBase = base
	}
	if max > 0 {
		c.backoffMax = max
	}
}

// connectLocked (re)establishes the connection and starts its read loop.
func (c *Client) connectLocked() error {
	obsWireDials.Inc()
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		// ErrUnreachable: the request (if any) never left this process, so
		// even an active invocation may safely fail over to a replica.
		return fmt.Errorf("wire: dial %s: %w: %w", c.addr, resilience.ErrUnreachable, err)
	}
	cc := &clientConn{conn: conn, enc: gob.NewEncoder(conn), pending: make(map[uint64]chan *Response)}
	c.cur = cc
	go c.readLoop(cc, gob.NewDecoder(conn))
	return nil
}

// readLoop routes responses to their waiters until the connection dies,
// then fails fast everything still pending ON THIS connection.
func (c *Client) readLoop(cc *clientConn, dec *gob.Decoder) {
	for {
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			c.mu.Lock()
			if c.cur == cc {
				c.cur = nil
			}
			for id, ch := range cc.pending {
				close(ch)
				delete(cc.pending, id)
			}
			c.mu.Unlock()
			_ = cc.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- &resp
		}
	}
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cur != nil {
		err := c.cur.conn.Close()
		c.cur = nil
		return err
	}
	return nil
}

// Addr returns the remote address.
func (c *Client) Addr() string { return c.addr }

// roundTrip sends one request and waits for its response, transparently
// redialing a lost connection (see roundTripCtx).
func (c *Client) roundTrip(req *Request) (*Response, error) {
	return c.roundTripCtx(context.Background(), req)
}

// roundTripCtx drives one request to completion under the reconnection
// policy: connection-level failures (dial, write, read loop death) redial
// with capped exponential backoff and retry; a timed-out or cancelled
// request is NOT retried, because it may already have reached the server.
func (c *Client) roundTripCtx(ctx context.Context, req *Request) (*Response, error) {
	req.Ver = Version
	obsWireCalls.Inc()
	// A sampled invocation gets a round-trip child span and exports its
	// trace context in the frame, so the server side can resume the trace.
	var span *trace.Span
	if trace.Default.Active() {
		if parent := trace.FromContext(ctx); parent != nil {
			span = parent.Child("wire.roundtrip")
			span.SetAttr("addr", c.addr)
			req.TraceID = span.Trace()
			req.SpanID = span.ID()
		}
	}
	start := time.Now()
	resp, err := c.doRoundTripCtx(ctx, req)
	obsWireLatency.Observe(time.Since(start))
	if err != nil {
		obsWireFailures.Inc()
		span.SetAttr("error", err.Error())
	}
	span.Finish()
	return resp, err
}

func (c *Client) doRoundTripCtx(ctx context.Context, req *Request) (*Response, error) {
	c.mu.Lock()
	attempts := c.attempts
	c.mu.Unlock()
	backoff := c.backoffBase
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := resilience.SleepCtx(ctx, backoff); err != nil {
				return nil, fmt.Errorf("wire: %s: %w", c.addr, err)
			}
			backoff *= 2
			if backoff > c.backoffMax {
				backoff = c.backoffMax
			}
			obsWireRetries.Inc()
		}
		resp, err, retryable := c.tryRoundTrip(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
	}
	return nil, lastErr
}

// tryRoundTrip performs a single send/receive attempt. retryable reports
// whether the failure is connection-level (safe to redial and resend: the
// request never reached the server, or the connection died before any
// response could have been routed to us).
func (c *Client) tryRoundTrip(ctx context.Context, req *Request) (resp *Response, err error, retryable bool) {
	c.mu.Lock()
	if c.closed {
		// A deliberately closed client (the discovery manager processed a
		// Bye for this node) never sends: unreachable, so callers racing
		// the close — a batch frame in flight during the Bye — fail over
		// to a surviving replica instead of surfacing a terminal error.
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: client closed", c.addr, resilience.ErrUnreachable), false
	}
	if c.cur == nil {
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return nil, err, true
		}
	}
	cc := c.cur
	c.nextID++
	req.ID = c.nextID
	ch := make(chan *Response, 1)
	cc.pending[req.ID] = ch
	if c.timeout > 0 {
		_ = cc.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	err = cc.enc.Encode(req)
	if c.timeout > 0 {
		_ = cc.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		// A failed write poisons the gob stream: drop the connection and
		// fail fast every request still in flight on it. The incomplete
		// frame can never decode server-side, so the request did not
		// execute — unreachable, not unknown.
		if c.cur == cc {
			c.cur = nil
		}
		for id, pch := range cc.pending {
			close(pch)
			delete(cc.pending, id)
		}
		_ = cc.conn.Close()
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: %w", c.addr, resilience.ErrUnreachable, err), true
	}
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			// The connection died before our response was routed back: the
			// reply can never arrive. The request WAS sent, so the server
			// may have executed it — ErrOutcomeUnknown. For passive calls
			// redialing and resending is safe and the only way forward; a
			// no-resend context (active invocations) must instead surface
			// the unknown outcome so the query layer can pin the action
			// rather than risk firing its side effect twice.
			obsWireConnLost.Inc()
			if resilience.NoResend(ctx) {
				return nil, fmt.Errorf("wire: %s: connection lost: %w", c.addr, resilience.ErrOutcomeUnknown), false
			}
			return nil, fmt.Errorf("wire: %s: connection lost: %w", c.addr, resilience.ErrOutcomeUnknown), true
		}
		return resp, nil, false
	case <-timeout:
		obsWireTimeouts.Inc()
		c.mu.Lock()
		delete(cc.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: request timed out after %s: %w", c.addr, c.timeout, resilience.ErrOutcomeUnknown), false
	case <-ctx.Done():
		c.mu.Lock()
		delete(cc.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: %w", c.addr, resilience.ErrOutcomeUnknown, ctx.Err()), false
	}
}

// Describe queries the node's name and hosted services.
func (c *Client) Describe() (string, []ServiceInfo, error) {
	resp, err := c.roundTrip(&Request{Op: "describe"})
	if err != nil {
		return "", nil, err
	}
	if resp.Err != "" {
		return "", nil, remoteError(resp.Err)
	}
	return resp.Node, resp.Services, nil
}

// ErrAnnounceUnsupported reports a pre-v4 peer that cannot carry announce
// frames (it answered "unknown op").
var ErrAnnounceUnsupported = fmt.Errorf("wire: peer does not support announce frames")

// Announce ships discovery presence frames to the peer (wire v4) and
// returns the peer's node name, so the dialing side of a federation link
// learns the addr → node mapping for free. A pre-v4 peer answers "unknown
// op", surfaced as ErrAnnounceUnsupported so the sender can stop relaying
// to it instead of retrying forever.
func (c *Client) Announce(ctx context.Context, anns []Announce) (string, error) {
	resp, err := c.roundTripCtx(ctx, &Request{Op: "announce", Announces: anns})
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			return "", ErrAnnounceUnsupported
		}
		return "", remoteError(resp.Err)
	}
	return resp.Node, nil
}

// Invoke performs a remote invocation.
func (c *Client) Invoke(proto, ref string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	return c.InvokeCtx(context.Background(), proto, ref, input, at)
}

// InvokeCtx performs a remote invocation bounded by the context: the
// deadline caps the whole round trip, including reconnection backoff.
func (c *Client) InvokeCtx(ctx context.Context, proto, ref string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	resp, err := c.roundTripCtx(ctx, &Request{
		Op: "invoke", Proto: proto, Ref: ref, Input: EncodeTuple(input), At: int64(at),
	})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	rows := make([]value.Tuple, len(resp.Rows))
	for i, r := range resp.Rows {
		t, err := DecodeTuple(r)
		if err != nil {
			return nil, err
		}
		rows[i] = t
	}
	return rows, nil
}

// InvokeBatchCtx performs many invocations of one (proto, ref) pair in a
// single round trip (wire v3 batch frame). Results are positional and
// per-item. A pre-v3 peer answers "unknown op"; the client then latches the
// connection as batch-incapable and degrades to per-item InvokeCtx calls —
// transparent to callers beyond the lost batching win. Transport failures
// (the frame itself failed) uniformly fail every item.
func (c *Client) InvokeBatchCtx(ctx context.Context, proto, ref string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	out := make([]service.InvokeResult, len(inputs))
	if len(inputs) == 0 {
		return out
	}
	if c.batchUnsupported.Load() {
		return c.invokeBatchFallback(ctx, proto, ref, inputs, at)
	}
	obsWireBatchCalls.Inc()
	obsWireBatchItems.Add(int64(len(inputs)))
	items := make([]BatchItem, len(inputs))
	for i, in := range inputs {
		items[i] = BatchItem{Proto: proto, Ref: ref, Input: EncodeTuple(in), At: int64(at)}
	}
	resp, err := c.roundTripCtx(ctx, &Request{Op: "batch", Items: items})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			// Pre-v3 peer: remember and degrade to per-item invokes.
			c.batchUnsupported.Store(true)
			return c.invokeBatchFallback(ctx, proto, ref, inputs, at)
		}
		ferr := remoteError(resp.Err)
		for i := range out {
			out[i].Err = ferr
		}
		return out
	}
	for i := range out {
		if i >= len(resp.ItemResults) {
			out[i].Err = fmt.Errorf("wire: %s: batch response carried %d of %d results", c.addr, len(resp.ItemResults), len(inputs))
			continue
		}
		res := resp.ItemResults[i]
		if res.Err != "" {
			out[i].Err = remoteError(res.Err)
			continue
		}
		rows := make([]value.Tuple, len(res.Rows))
		var decErr error
		for j, r := range res.Rows {
			t, err := DecodeTuple(r)
			if err != nil {
				decErr = err
				break
			}
			rows[j] = t
		}
		if decErr != nil {
			out[i].Err = decErr
			continue
		}
		out[i].Rows = rows
	}
	return out
}

// invokeBatchFallback is the pre-v3 degradation: per-item round trips on a
// bounded pool, preserving the batch call's positional per-item contract.
func (c *Client) invokeBatchFallback(ctx context.Context, proto, ref string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	obsWireBatchFallbacks.Inc()
	out := make([]service.InvokeResult, len(inputs))
	workers := service.DefaultBatchParallelism
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers < 2 {
		for i, in := range inputs {
			out[i].Rows, out[i].Err = c.InvokeCtx(ctx, proto, ref, in, at)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i].Rows, out[i].Err = c.InvokeCtx(ctx, proto, ref, inputs[i], at)
			}
		}()
	}
	for i := range inputs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Remote wraps one remote service behind a client connection so it
// satisfies service.Service — the core ERM registers these proxies, making
// remote invocation transparent to queries (Section 5.1).
type Remote struct {
	client *Client
	ref    string
	protos map[string]bool
	names  []string
}

// NewRemote builds a proxy for the described service.
func NewRemote(client *Client, info ServiceInfo) *Remote {
	protos := make(map[string]bool, len(info.Prototypes))
	for _, p := range info.Prototypes {
		protos[p] = true
	}
	return &Remote{client: client, ref: info.Ref, protos: protos, names: append([]string(nil), info.Prototypes...)}
}

// Ref implements service.Service.
func (r *Remote) Ref() string { return r.ref }

// PrototypeNames implements service.Service.
func (r *Remote) PrototypeNames() []string { return r.names }

// Implements implements service.Service.
func (r *Remote) Implements(p string) bool { return r.protos[p] }

// Invoke implements service.Service by a wire round trip.
func (r *Remote) Invoke(proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	return r.client.Invoke(proto, r.ref, input, at)
}

// InvokeCtx implements service.CtxService: the registry's per-invocation
// deadline propagates all the way into the wire round trip instead of
// being enforced by goroutine abandonment.
func (r *Remote) InvokeCtx(ctx context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	return r.client.InvokeCtx(ctx, proto, r.ref, input, at)
}

// InvokeBatchCtx implements service.BatchCtxService: the registry hands a
// whole (proto, ref) group to the proxy, which ships it as one wire v3
// batch frame (or degrades to per-item round trips against pre-v3 peers).
func (r *Remote) InvokeBatchCtx(ctx context.Context, proto string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	return r.client.InvokeBatchCtx(ctx, proto, r.ref, inputs, at)
}
