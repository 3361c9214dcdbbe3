package main

// Values calibrated once, on the commit that introduced the benchmark,
// and frozen: a later change that edits them is measuring a different
// benchmark. (BENCHMARK.json admits only its contract's keys, so they
// live here.)
//
//   - openRate: open-loop slots per second over both callers, 40 % of
//     the closed-loop ops_per_s measured on that commit (for
//     portal-churn, of polls plus updates), to two significant digits.
//   - warmOps: warm-up ops per caller, roughly half a second's worth at
//     that closed-loop rate.
type frozen struct {
	openRate float64
	warmOps  int
}

var frozenParams = map[string]frozen{
	wlSteady: {openRate: 10000, warmOps: 6500},
	wlChurn:  {openRate: 500, warmOps: 320},
	wlFed:    {openRate: 1500, warmOps: 940},
}

const (
	// servingTrials is how many times a serving run rebuilds its site;
	// --seconds is split evenly into that many closed and open phases.
	servingTrials = 3
	// windowsPerTrial is how many closed/open window pairs a trial
	// alternates through on one site.
	windowsPerTrial = 5
	// swarmTrialSeconds is what one swarm-p4p trial (three 1 000-leecher
	// swarms) took on that commit; --seconds buys seconds/swarmTrialSeconds
	// trials, rounded, and never fewer than one.
	swarmTrialSeconds = 4.0
	swarmLeechers     = 1000
	swarmsPerTrial    = 3
	warmLeechers      = 300 // swarm-p4p's warm-up swarm
	// refLeechers and refSwarms size the reference swarms a serving run
	// times so that swarm_s exists on every workload: the same
	// in-process CPU-bound work on every run, which moves with the
	// machine and with p2psim/apptracker/core, never with the serving
	// stack.
	refLeechers = 200
	refSwarms   = 5
	// steadyFreshSamples is how many update-to-client samples
	// portal-steady takes after its timed phases.
	steadyFreshSamples = 150
)
