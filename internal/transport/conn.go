package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes connections.
type Config struct {
	// MSS is the maximum segment payload. With the paper's default 4K MTU
	// this is 4096-HeaderLen bytes of application payload per packet.
	MSS int
	// MinRTO is the minimum retransmission timeout. Linux's 200 ms
	// default is what makes packet drops catastrophic for RPC tail
	// latency (Figure 4: P99.9 inflation ≈ the RTO).
	MinRTO sim.Time
	// MaxRTO caps exponential backoff.
	MaxRTO sim.Time
	// InitialRTO applies before any RTT sample exists.
	InitialRTO sim.Time
	// TLP enables tail loss probes: with more than one packet in flight a
	// probe retransmission fires after ~2×SRTT, recovering tail drops
	// without waiting for the full RTO (§2.2).
	TLP bool
	// TLPMin is the minimum probe timeout.
	TLPMin sim.Time
	// DelayedAckCount acknowledges every Nth data packet (an ACK is sent
	// immediately whenever the CE state changes, per DCTCP).
	DelayedAckCount int
	// DelayedAckTimeout bounds how long an ACK may be delayed.
	DelayedAckTimeout sim.Time
	// ECN marks data packets ECT(0) and echoes CE via ECE.
	ECN bool
	// CC constructs the congestion controller (default DCTCP).
	CC CCFactory
	// MaxCwnd caps the congestion window in bytes.
	MaxCwnd int
	// RcvWnd is the peer's advertised receive window: in-flight data per
	// connection never exceeds it (static; window autotuning is not
	// modeled). This is what bounds in-host queueing when the receiver
	// CPU, not the network, is the bottleneck.
	RcvWnd int
	// PacingFactor enables TCP internal pacing (Linux ≥4.13): new data is
	// transmitted at PacingFactor × cwnd/SRTT instead of in window-sized
	// bursts. Zero disables pacing.
	PacingFactor float64
	// Pool recycles transmitted packets. Packets the connection sends are
	// acquired here and released by whichever component removes them from
	// the simulation (terminal receive delivery or a drop point). Nil
	// falls back to plain allocation.
	Pool *packet.Pool
}

// DefaultConfig returns the Linux-DCTCP-like configuration used throughout
// the evaluation, for a given MTU.
func DefaultConfig(mtu int) Config {
	if mtu <= packet.HeaderLen {
		panic("transport: MTU smaller than headers")
	}
	return Config{
		MSS:               mtu - packet.HeaderLen,
		MinRTO:            200 * sim.Millisecond,
		MaxRTO:            5 * sim.Second,
		InitialRTO:        200 * sim.Millisecond,
		TLP:               true,
		TLPMin:            500 * sim.Microsecond,
		DelayedAckCount:   2,
		DelayedAckTimeout: 500 * sim.Microsecond,
		ECN:               true,
		CC:                NewDCTCP(),
		MaxCwnd:           8 << 20,
		RcvWnd:            640 << 10,
		PacingFactor:      2.0,
	}
}

// Network is the packet output path (implemented by the host, or by test
// harnesses).
type Network interface {
	Transmit(p *packet.Packet)
}

// seg is one unacknowledged segment at the sender.
type seg struct {
	seq    uint64
	len    int
	sentAt sim.Time
	retx   int
	sacked bool // selectively acknowledged
	epoch  int  // recovery epoch of the last retransmission
}

// interval is a received out-of-order byte range.
type interval struct{ lo, hi uint64 }

// Conn is one bidirectional connection. Application payload is modeled as
// byte counts; sequence numbers, acknowledgment, retransmission and
// congestion control are fully simulated.
type Conn struct {
	e    *sim.Engine
	net  Network
	flow packet.FlowID
	cfg  Config
	cc   CongestionControl

	// ratePacer/cnpSink cache the cc's optional interfaces (DCQCN), so
	// the per-packet pacing path stays assertion-free.
	ratePacer RatePacer
	cnpSink   CNPReceiver

	pool *packet.Pool

	// Sender half.
	sndUna, sndNxt uint64
	appQueue       int64
	infinite       bool
	segs           ring.Queue[seg]
	dupAcks        int
	inRecovery     bool
	recoverSeq     uint64
	recoveryEpoch  int
	highSacked     uint64
	lostBelow      uint64
	srtt, rttvar   sim.Time
	rtoBackoff     int
	rtoTimer       *sim.Timer
	tlpTimer       *sim.Timer
	tlpArmed       bool
	pacedUntil     sim.Time
	paceTimer      *sim.Timer

	// Receiver half.
	rcvNxt         uint64
	ooo            []interval
	lastOOO        interval // most recently touched out-of-order range
	lastEpochBump  sim.Time // last RACK-style epoch reopen
	pendingAcks    int
	ceSinceLastAck bool
	lastCE         bool
	lastDataSentAt sim.Time
	intMaxUtil     float64 // max INT stamp on data since the last ACK
	intMaxHops     uint8
	ackTimer       *sim.Timer
	onData         func(n int)

	// Counters.
	Retransmits   stats.Counter
	Timeouts      stats.Counter
	TLPProbes     stats.Counter
	MarkedAcks    stats.Counter
	AckedBytes    stats.Counter
	DeliveredData stats.Counter
}

func newConn(e *sim.Engine, net Network, flow packet.FlowID, cfg Config) *Conn {
	if cfg.MSS <= 0 {
		panic("transport: non-positive MSS")
	}
	cc := cfg.CC
	if cc == nil {
		cc = NewDCTCP()
	}
	c := &Conn{
		e:    e,
		net:  net,
		flow: flow,
		cfg:  cfg,
		cc:   cc(e, cfg.MSS),
		pool: cfg.Pool,
	}
	c.ratePacer, _ = c.cc.(RatePacer)
	c.cnpSink, _ = c.cc.(CNPReceiver)
	c.rtoTimer = sim.NewTimer(e, c.onRTO)
	c.tlpTimer = sim.NewTimer(e, c.onTLP)
	c.ackTimer = sim.NewTimer(e, func() { c.sendAck() })
	c.paceTimer = sim.NewTimer(e, func() { c.trySend() })
	return c
}

// Flow returns the connection's flow identifier (sender-side orientation).
func (c *Conn) Flow() packet.FlowID { return c.flow }

// CC returns the congestion controller (for diagnostics).
func (c *Conn) CC() CongestionControl { return c.cc }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// OnData registers the application's in-order delivery callback.
func (c *Conn) OnData(fn func(n int)) { c.onData = fn }

// Send queues n application bytes for transmission.
func (c *Conn) Send(n int) {
	if n <= 0 {
		panic("transport: Send of non-positive byte count")
	}
	c.appQueue += int64(n)
	c.trySend()
}

// SetInfiniteSource makes the connection behave like a long flow with
// unbounded data (the NetApp-T / iperf model).
func (c *Conn) SetInfiniteSource(on bool) {
	c.infinite = on
	if on {
		c.trySend()
	}
}

// SeedRate forwards a fluid-model rate estimate to the congestion
// controller, if it supports seeding (the hybrid tier's promote path).
func (c *Conn) SeedRate(rate sim.Rate, rtt sim.Time) {
	if s, ok := c.cc.(RateSeeder); ok {
		s.SeedRate(rate, rtt)
	}
}

// Flight returns the bytes currently in flight.
func (c *Conn) Flight() int { return int(c.sndNxt - c.sndUna) }

// effCwnd applies the configured window caps (congestion window bounded
// by the peer's receive window).
func (c *Conn) effCwnd() int {
	w := c.cc.Cwnd()
	if c.cfg.MaxCwnd > 0 && w > c.cfg.MaxCwnd {
		w = c.cfg.MaxCwnd
	}
	if c.cfg.RcvWnd > 0 && w > c.cfg.RcvWnd {
		w = c.cfg.RcvWnd
	}
	return w
}

func (c *Conn) trySend() {
	for (c.appQueue > 0 || c.infinite) && c.Flight() < c.effCwnd() {
		if c.pacedUntil > c.e.Now() {
			// Pacing gate: resume when the pacer allows the next packet.
			if !c.paceTimer.Pending() {
				c.paceTimer.ResetAt(c.pacedUntil)
			}
			break
		}
		n := c.cfg.MSS
		if !c.infinite && int64(n) > c.appQueue {
			n = int(c.appQueue)
		}
		c.segs.Push(seg{seq: c.sndNxt, len: n})
		c.sndNxt += uint64(n)
		if !c.infinite {
			c.appQueue -= int64(n)
		}
		c.transmitSeg(c.segs.Ref(c.segs.Len()-1), false)
		c.advancePacer(n + packet.HeaderLen)
	}
	c.armTimers()
}

// advancePacer charges one transmitted packet against the pacing budget.
// A rate-based controller (DCQCN) paces at its own rate from the first
// packet; window-based controllers pace at PacingFactor × cwnd/SRTT, with
// the initial window going out unpaced before an RTT sample exists.
func (c *Conn) advancePacer(wire int) {
	if c.ratePacer != nil {
		c.pacedUntil = max(c.pacedUntil, c.e.Now()) + c.ratePacer.PaceRate().TimeFor(wire)
		return
	}
	if c.cfg.PacingFactor <= 0 || c.srtt == 0 {
		return
	}
	rate := sim.Rate(c.cfg.PacingFactor * float64(c.effCwnd()) / c.srtt.Seconds())
	c.pacedUntil = max(c.pacedUntil, c.e.Now()) + rate.TimeFor(wire)
}

func (c *Conn) transmitSeg(s *seg, retx bool) {
	s.sentAt = c.e.Now()
	if retx {
		s.retx++
		c.Retransmits.Inc()
	}
	p := c.pool.Get()
	p.Flow = c.flow
	p.Seq = s.seq
	p.Ack = c.rcvNxt
	p.Flags = packet.FlagACK
	p.PayloadLen = s.len
	p.SentAt = s.sentAt
	if c.cfg.ECN {
		p.ECN = packet.ECT0
	}
	c.net.Transmit(p)
}

// armTimers (re-)arms RTO and TLP based on current flight.
func (c *Conn) armTimers() {
	if c.Flight() == 0 {
		c.rtoTimer.Stop()
		c.tlpTimer.Stop()
		c.tlpArmed = false
		return
	}
	if !c.rtoTimer.Pending() {
		c.rtoTimer.Reset(c.rto())
	}
	// TLP arms only with more than one segment in flight: a single-packet
	// message that is lost produces no dupacks and no probe, and must wait
	// for the full RTO (§2.2). Once armed, the probe persists across
	// cumulative ACKs (Linux semantics), so losing only the tail of a
	// burst is still probed.
	if c.cfg.TLP && !c.inRecovery && c.segs.Len() > 1 && !c.tlpArmed {
		if pto := c.pto(); pto < c.rto() {
			c.tlpTimer.Reset(pto)
			c.tlpArmed = true
		}
	}
}

// pto is the probe timeout: ~2 SRTT plus a delayed-ACK allowance so a
// receiver holding an ACK does not trigger spurious probes.
func (c *Conn) pto() sim.Time {
	pto := 2 * c.srtt
	if pto < c.cfg.TLPMin {
		pto = c.cfg.TLPMin
	}
	return pto + c.cfg.DelayedAckTimeout
}

func (c *Conn) rto() sim.Time {
	base := c.cfg.InitialRTO
	if c.srtt > 0 {
		base = c.srtt + 4*c.rttvar
	}
	if base < c.cfg.MinRTO {
		base = c.cfg.MinRTO
	}
	for i := 0; i < c.rtoBackoff; i++ {
		base *= 2
		if base >= c.cfg.MaxRTO {
			return c.cfg.MaxRTO
		}
	}
	return base
}

// Receive processes an inbound packet for this connection (called by the
// endpoint demultiplexer after the host's receive hooks have run).
func (c *Conn) Receive(p *packet.Packet) {
	if p.Flags.Has(packet.FlagCNP) {
		// Congestion notification (DCQCN): consumed by the rate
		// controller, never by the byte stream. A CNP reaching a
		// non-DCQCN connection is ignored, as real NICs do for flows
		// without rate limiters.
		if c.cnpSink != nil {
			c.cnpSink.OnCNP()
		}
		return
	}
	if p.Flags.Has(packet.FlagACK) {
		c.handleAck(p)
	}
	if p.IsData() {
		c.handleData(p)
	}
}

func (c *Conn) handleAck(p *packet.Packet) {
	if p.Ack > c.sndNxt {
		return // acks data never sent; ignore
	}
	c.applySack(p.SACK)
	newly := int64(p.Ack) - int64(c.sndUna)
	if newly <= 0 {
		// Duplicate ACK: only pure ACKs with outstanding data count.
		if p.Ack == c.sndUna && c.Flight() > 0 && !p.IsData() {
			c.dupAcks++
			if c.dupAcks == 3 && !c.inRecovery {
				c.enterRecovery()
			} else if c.inRecovery {
				// RACK-style: dupacks still arriving a full RTT after the
				// last reopen mean retransmissions were lost too; open a
				// new epoch so they become eligible again.
				reo := c.srtt
				if reo < c.cfg.TLPMin {
					reo = c.cfg.TLPMin
				}
				if c.e.Now()-c.lastEpochBump > reo {
					c.lastEpochBump = c.e.Now()
					c.recoveryEpoch++
				}
				c.sackRetransmit()
			}
		}
		return
	}

	c.sndUna = p.Ack
	c.AckedBytes.Add(newly)
	c.dupAcks = 0
	c.rtoBackoff = 0
	for c.segs.Len() > 0 {
		s := c.segs.Peek()
		if s.seq+uint64(s.len) > c.sndUna {
			break
		}
		c.segs.Pop()
	}

	var rtt sim.Time
	if p.EchoTS > 0 && p.EchoTS <= c.e.Now() {
		rtt = c.e.Now() - p.EchoTS
		c.updateRTT(rtt)
	}
	// Symmetric to the receive side: a non-ECN sender never negotiated
	// ECN, so an ECE from an asymmetric peer is noise, not a signal.
	marked := c.cfg.ECN && p.Flags.Has(packet.FlagECE)
	if marked {
		c.MarkedAcks.Inc()
	}

	if c.inRecovery {
		if p.Ack >= c.recoverSeq {
			c.inRecovery = false
		} else {
			// Partial ACK: keep repairing holes (SACK-guided).
			c.sackRetransmit()
		}
	}

	c.cc.OnAck(AckEvent{
		Bytes:   int(newly),
		Marked:  marked,
		RTT:     rtt,
		AckSeq:  p.Ack,
		SndNxt:  c.sndNxt,
		Flight:  c.Flight(),
		INTUtil: p.INTEchoUtil,
		INTHops: int(p.INTEchoHops),
	})

	// Fresh RTO for the new head of line. An armed probe is re-armed
	// relative to this ACK so it keeps covering the remaining tail
	// without firing spuriously mid-transfer.
	c.rtoTimer.Stop()
	if c.Flight() == 0 {
		c.tlpTimer.Stop()
		c.tlpArmed = false
	} else if c.tlpArmed {
		c.tlpTimer.Reset(c.pto())
	}
	c.trySend()
}

func (c *Conn) enterRecovery() {
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.recoveryEpoch++
	c.lastEpochBump = c.e.Now()
	c.cc.OnLoss(LossFastRetransmit)
	if c.segs.Len() > 0 && !c.sackRetransmit() {
		// No SACK information: classic fast retransmit of the head.
		s := c.segs.Ref(0)
		s.epoch = c.recoveryEpoch
		c.transmitSeg(s, true)
	}
}

// applySack marks segments covered by the ACK's SACK blocks.
func (c *Conn) applySack(blocks []packet.SackBlock) {
	for _, b := range blocks {
		if b.Hi > c.highSacked {
			c.highSacked = b.Hi
		}
		for i := 0; i < c.segs.Len(); i++ {
			s := c.segs.Ref(i)
			if !s.sacked && s.seq >= b.Lo && s.seq+uint64(s.len) <= b.Hi {
				s.sacked = true
			}
		}
	}
}

// sackRetransmit repairs holes during recovery (a simplified RFC 6675
// pipe algorithm): segments below the highest SACKed sequence that are
// neither SACKed nor already retransmitted this epoch are lost; retransmit
// them while the outstanding unsacked data fits the window. Reports
// whether anything was retransmitted.
func (c *Conn) sackRetransmit() bool {
	// pipe: bytes presumed in flight — segments that are not SACKed and
	// are either above the SACK frontier (not yet deemed lost) or already
	// retransmitted this epoch. Pacing retransmissions against this keeps
	// recovery ACK-clocked instead of re-bursting a full window into an
	// already overflowing buffer.
	pipe := 0
	for i := 0; i < c.segs.Len(); i++ {
		s := c.segs.Ref(i)
		if s.sacked {
			continue
		}
		if s.epoch == c.recoveryEpoch || (s.seq >= c.highSacked && s.seq >= c.lostBelow) {
			pipe += s.len
		}
	}
	sent := false
	for i := 0; i < c.segs.Len(); i++ {
		s := c.segs.Ref(i)
		if pipe >= c.effCwnd() {
			break
		}
		if s.sacked || s.epoch == c.recoveryEpoch || (s.seq >= c.highSacked && s.seq >= c.lostBelow) {
			continue
		}
		s.epoch = c.recoveryEpoch
		c.transmitSeg(s, true)
		pipe += s.len
		sent = true
	}
	return sent
}

func (c *Conn) onRTO() {
	if c.Flight() == 0 {
		return
	}
	c.Timeouts.Inc()
	c.cc.OnLoss(LossTimeout)
	c.rtoBackoff++
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	// RFC 6675 after a timeout: the whole flight is deemed lost, not just
	// the head. Without this, a flight wiped out in one event (link flap)
	// with no SACKs above it recovers one segment per backed-off RTO.
	// sackRetransmit re-sends the lost range ACK-clocked as cwnd reopens.
	c.lostBelow = c.sndNxt
	c.recoveryEpoch++
	c.lastEpochBump = c.e.Now()
	c.dupAcks = 0
	if c.segs.Len() > 0 {
		s := c.segs.Ref(0)
		s.epoch = c.recoveryEpoch
		c.transmitSeg(s, true)
	}
	c.rtoTimer.Reset(c.rto())
}

func (c *Conn) onTLP() {
	c.tlpArmed = false
	if c.Flight() == 0 || c.inRecovery {
		return
	}
	// Probe: retransmit the highest-sequence unacked segment.
	c.TLPProbes.Inc()
	if c.segs.Len() > 0 {
		c.transmitSeg(c.segs.Ref(c.segs.Len()-1), true)
	}
}

func (c *Conn) updateRTT(rtt sim.Time) {
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
		return
	}
	d := c.srtt - rtt
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

func (c *Conn) handleData(p *packet.Packet) {
	// A non-ECN endpoint must not interpret CE: without the gate, a CE
	// codepoint set upstream (hostCC's marker or an ECN switch facing an
	// asymmetric peer) latched ceSinceLastAck and every later ACK echoed
	// a stale ECE that nothing would ever consume.
	ce := c.cfg.ECN && p.ECN == packet.CE
	if ce {
		c.ceSinceLastAck = true
	}
	c.lastDataSentAt = p.SentAt
	// INT echo: remember the worst per-hop utilization reported since the
	// last ACK, so delayed ACKs carry the peak, not the latest sample.
	if p.INTHops > 0 {
		if p.INTUtil > c.intMaxUtil {
			c.intMaxUtil = p.INTUtil
		}
		if p.INTHops > c.intMaxHops {
			c.intMaxHops = p.INTHops
		}
	}

	switch {
	case p.End() <= c.rcvNxt:
		// Fully old (spurious retransmission): ack immediately.
		c.sendAck()
	case p.Seq > c.rcvNxt:
		// Out of order: store and send an immediate duplicate ACK.
		c.insertOOO(interval{p.Seq, p.End()})
		c.sendAck()
	default:
		// In order (possibly overlapping): advance and merge.
		old := c.rcvNxt
		c.rcvNxt = p.End()
		c.mergeOOO()
		delivered := int(c.rcvNxt - old)
		c.DeliveredData.Add(int64(delivered))
		if c.onData != nil && delivered > 0 {
			c.onData(delivered)
		}
		c.scheduleAck(ce)
	}
}

// scheduleAck implements delayed ACKs with DCTCP's rule: any change in the
// CE state forces an immediate ACK so marking feedback stays byte-accurate.
func (c *Conn) scheduleAck(ce bool) {
	c.pendingAcks++
	if ce != c.lastCE || c.pendingAcks >= c.cfg.DelayedAckCount {
		c.lastCE = ce
		c.sendAck()
		return
	}
	c.lastCE = ce
	if !c.ackTimer.Pending() {
		c.ackTimer.Reset(c.cfg.DelayedAckTimeout)
	}
}

func (c *Conn) sendAck() {
	c.pendingAcks = 0
	c.ackTimer.Stop()
	ack := c.pool.Get()
	ack.Flow = c.flow
	ack.Ack = c.rcvNxt
	ack.Flags = packet.FlagACK
	ack.EchoTS = c.lastDataSentAt
	// Report the most recently touched range first (as TCP does), so the
	// sender's repair frontier (highest SACKed sequence) advances even
	// when there are more holes than reportable blocks.
	if c.lastOOO.hi > c.lastOOO.lo && c.lastOOO.hi > c.rcvNxt {
		ack.SACK = append(ack.SACK, packet.SackBlock{Lo: c.lastOOO.lo, Hi: c.lastOOO.hi})
	}
	for i := len(c.ooo) - 1; i >= 0 && len(ack.SACK) < packet.MaxSackBlocks; i-- {
		iv := c.ooo[i]
		if iv == c.lastOOO {
			continue
		}
		ack.SACK = append(ack.SACK, packet.SackBlock{Lo: iv.lo, Hi: iv.hi})
	}
	if c.ceSinceLastAck {
		ack.Flags |= packet.FlagECE
	}
	c.ceSinceLastAck = false
	ack.INTEchoUtil = c.intMaxUtil
	ack.INTEchoHops = c.intMaxHops
	c.intMaxUtil = 0
	c.intMaxHops = 0
	c.net.Transmit(ack)
}

func (c *Conn) insertOOO(iv interval) {
	for i, x := range c.ooo {
		if iv.lo <= x.hi && x.lo <= iv.hi { // overlap: extend
			if iv.lo < x.lo {
				x.lo = iv.lo
			}
			if iv.hi > x.hi {
				x.hi = iv.hi
			}
			c.ooo[i] = x
			c.lastOOO = x
			return
		}
	}
	c.ooo = append(c.ooo, iv)
	c.lastOOO = iv
}

func (c *Conn) mergeOOO() {
	for {
		advanced := false
		for i := 0; i < len(c.ooo); i++ {
			iv := c.ooo[i]
			if iv.lo <= c.rcvNxt {
				if iv.hi > c.rcvNxt {
					c.rcvNxt = iv.hi
				}
				c.ooo = append(c.ooo[:i], c.ooo[i+1:]...)
				advanced = true
				break
			}
		}
		if !advanced {
			return
		}
	}
}

// ReceivedBytes returns in-order bytes delivered to the application.
func (c *Conn) ReceivedBytes() int64 { return c.DeliveredData.Total() }

func (c *Conn) String() string {
	return fmt.Sprintf("conn %v cc=%s cwnd=%d flight=%d una=%d nxt=%d",
		c.flow, c.cc.Name(), c.cc.Cwnd(), c.Flight(), c.sndUna, c.sndNxt)
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	if c.MSS <= 0 {
		return fmt.Errorf("transport: MSS %d must be positive", c.MSS)
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO || c.InitialRTO <= 0 {
		return fmt.Errorf("transport: bad RTO bounds (min %v, max %v, initial %v)", c.MinRTO, c.MaxRTO, c.InitialRTO)
	}
	if c.TLP && c.TLPMin <= 0 {
		return fmt.Errorf("transport: TLP requires a positive TLPMin, got %v", c.TLPMin)
	}
	if c.DelayedAckCount < 0 || c.DelayedAckTimeout < 0 {
		return fmt.Errorf("transport: negative delayed-ACK parameters")
	}
	if c.MaxCwnd <= 0 || c.RcvWnd <= 0 {
		return fmt.Errorf("transport: MaxCwnd %d and RcvWnd %d must be positive", c.MaxCwnd, c.RcvWnd)
	}
	if c.PacingFactor < 0 {
		return fmt.Errorf("transport: negative PacingFactor %v", c.PacingFactor)
	}
	return nil
}
