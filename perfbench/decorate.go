package main

import (
	"sync/atomic"
	"time"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
)

// The decorators below sit between engine.Run and the components
// sim.Scenario.Materialize built, timing and counting every call the
// engine makes into the loss, cm and core layers. Each one forwards
// exactly the optional interfaces its inner component implements (the
// engine picks its paths by type assertion), so a decorated run takes the
// same paths and produces the same execution as an undecorated one; the
// traced shard being byte-identical to the untraced one is the check.

// stepSampleMask sets how often an automaton call is timed: one call in
// stepSampleMask+1, chosen pseudo-randomly so the sample does not alias
// with the round structure. Calls are always counted exactly.
const stepSampleMask = 7

// autoCounts is one automaton's call accounting. An automaton is only ever
// driven by one goroutine at a time, so the counts need no atomics.
type autoCounts struct {
	calls, sampled, sampledNs int64
	rng                       uint64
}

// sample advances the xorshift state and reports whether to time this call.
func (c *autoCounts) sample() bool {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng&stepSampleMask == 0
}

type tracedAuto struct {
	inner model.Automaton
	c     autoCounts
}

func (a *tracedAuto) Message(r int, adv model.CMAdvice) *model.Message {
	a.c.calls++
	if !a.c.sample() {
		return a.inner.Message(r, adv)
	}
	t := time.Now()
	m := a.inner.Message(r, adv)
	a.c.sampledNs += int64(time.Since(t))
	a.c.sampled++
	return m
}

func (a *tracedAuto) Deliver(r int, recv *model.RecvSet, cd model.CDAdvice, adv model.CMAdvice) {
	a.c.calls++
	if !a.c.sample() {
		a.inner.Deliver(r, recv, cd, adv)
		return
	}
	t := time.Now()
	a.inner.Deliver(r, recv, cd, adv)
	a.c.sampledNs += int64(time.Since(t))
	a.c.sampled++
}

// tracedDecider forwards model.Decider, which the engine uses to book
// decisions and halting.
type tracedDecider struct {
	tracedAuto
	d model.Decider
}

func (a *tracedDecider) Decided() (model.Value, bool) { return a.d.Decided() }
func (a *tracedDecider) Halted() bool                 { return a.d.Halted() }

// tracedCM times Advise and AdviseInto. The engine calls the manager from
// its coordinating goroutine only.
type tracedCM struct {
	inner     cm.Service
	calls, ns int64
}

func (c *tracedCM) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	t := time.Now()
	m := c.inner.Advise(r, procs, alive)
	c.ns += int64(time.Since(t))
	c.calls++
	return m
}

func (c *tracedCM) adviseInto(d cm.DenseAdviser, r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	t := time.Now()
	d.AdviseInto(r, procs, alive, out)
	c.ns += int64(time.Since(t))
	c.calls++
}

type tracedDenseCM struct {
	*tracedCM
	dense cm.DenseAdviser
}

func (c tracedDenseCM) AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	c.adviseInto(c.dense, r, procs, alive, out)
}

type tracedObserverCM struct {
	*tracedCM
	obs cm.Observer
}

func (c tracedObserverCM) Observe(r, broadcasters int) { c.obs.Observe(r, broadcasters) }

type tracedDenseObserverCM struct {
	*tracedCM
	dense cm.DenseAdviser
	obs   cm.Observer
}

func (c tracedDenseObserverCM) AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	c.adviseInto(c.dense, r, procs, alive, out)
}

func (c tracedDenseObserverCM) Observe(r, broadcasters int) { c.obs.Observe(r, broadcasters) }

// wrapCM decorates a manager, keeping its DenseAdviser and Observer faces.
func wrapCM(s cm.Service) (cm.Service, *tracedCM) {
	t := &tracedCM{inner: s}
	dense, isDense := s.(cm.DenseAdviser)
	obs, isObs := s.(cm.Observer)
	switch {
	case isDense && isObs:
		return tracedDenseObserverCM{t, dense, obs}, t
	case isDense:
		return tracedDenseCM{t, dense}, t
	case isObs:
		return tracedObserverCM{t, obs}, t
	default:
		return t, t
	}
}

// tracedLoss times Plan, PlanShards and the shard fill calls. Fill calls run
// on the engine's shard pool concurrently, hence the atomics.
type tracedLoss struct {
	inner     loss.Adversary
	calls, ns atomic.Int64
}

func (l *tracedLoss) Plan(r int, senders, procs []model.ProcessID) loss.DeliveryFunc {
	t := time.Now()
	f := l.inner.Plan(r, senders, procs)
	l.ns.Add(int64(time.Since(t)))
	l.calls.Add(1)
	return f
}

func (l *tracedLoss) planShards(sp loss.ShardedPlanner, r int, senders, procs []model.ProcessID) (func(lo, hi int), loss.DeliveryFunc) {
	t := time.Now()
	fill, f := sp.PlanShards(r, senders, procs)
	l.ns.Add(int64(time.Since(t)))
	l.calls.Add(1)
	if fill == nil {
		return nil, f
	}
	return func(lo, hi int) {
		t := time.Now()
		fill(lo, hi)
		l.ns.Add(int64(time.Since(t)))
		l.calls.Add(1)
	}, f
}

type tracedConcurrentLoss struct{ *tracedLoss }

func (tracedConcurrentLoss) ConcurrentPlan() {}

type tracedShardedLoss struct {
	*tracedLoss
	sp loss.ShardedPlanner
}

func (l tracedShardedLoss) PlanShards(r int, senders, procs []model.ProcessID) (func(lo, hi int), loss.DeliveryFunc) {
	return l.planShards(l.sp, r, senders, procs)
}

type tracedConcurrentShardedLoss struct {
	*tracedLoss
	sp loss.ShardedPlanner
}

func (tracedConcurrentShardedLoss) ConcurrentPlan() {}

func (l tracedConcurrentShardedLoss) PlanShards(r int, senders, procs []model.ProcessID) (func(lo, hi int), loss.DeliveryFunc) {
	return l.planShards(l.sp, r, senders, procs)
}

// wrapLoss decorates an adversary so that loss.ConcurrentSafe and the
// ShardedPlanner assertion answer exactly as they do for the inner one.
func wrapLoss(a loss.Adversary) (loss.Adversary, *tracedLoss) {
	t := &tracedLoss{inner: a}
	sp, sharded := a.(loss.ShardedPlanner)
	safe := loss.ConcurrentSafe(a)
	switch {
	case safe && sharded:
		return tracedConcurrentShardedLoss{t, sp}, t
	case sharded:
		return tracedShardedLoss{t, sp}, t
	case safe:
		return tracedConcurrentLoss{t}, t
	default:
		return t, t
	}
}

// engineProbe is the set of decorators installed on one engine run.
type engineProbe struct {
	cm    *tracedCM
	loss  *tracedLoss
	autos []*autoCounts
}

// decorate installs decorators on a materialized configuration. seed keys
// the automata's sampling streams so that sampling is reproducible.
func decorate(cfg *engine.Config, seed int64) *engineProbe {
	p := &engineProbe{}
	if cfg.CM == nil {
		cfg.CM = cm.NoCM{}
	}
	if cfg.Loss == nil {
		cfg.Loss = loss.None{}
	}
	cfg.CM, p.cm = wrapCM(cfg.CM)
	cfg.Loss, p.loss = wrapLoss(cfg.Loss)
	procs := make(map[model.ProcessID]model.Automaton, len(cfg.Procs))
	for id, a := range cfg.Procs {
		rng := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 | 1
		if d, ok := a.(model.Decider); ok {
			w := &tracedDecider{tracedAuto: tracedAuto{inner: a, c: autoCounts{rng: rng}}, d: d}
			procs[id] = w
			p.autos = append(p.autos, &w.c)
		} else {
			w := &tracedAuto{inner: a, c: autoCounts{rng: rng}}
			procs[id] = w
			p.autos = append(p.autos, &w.c)
		}
	}
	cfg.Procs = procs
	return p
}

// coreTotals sums the automata's exact call counts and scales the timed
// calls of the whole run up to all of them.
func (p *engineProbe) coreTotals() (calls, ns int64) {
	var sampled, sampledNs int64
	for _, c := range p.autos {
		calls += c.calls
		sampled += c.sampled
		sampledNs += c.sampledNs
	}
	if sampled == 0 {
		return calls, 0
	}
	return calls, sampledNs * calls / sampled
}
