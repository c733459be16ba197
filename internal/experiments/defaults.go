package experiments

// Recovery-knob defaults of Scenario.SubQueryTimeout and RetryBudget.
//
// Scenario is a plain struct, so a zero field cannot distinguish "caller
// left it unset" from "caller explicitly wants zero". Historically the
// sweep configs coerced `<= 0` to the default, which made an explicit zero
// (retries off, timer disarmed) unexpressible — and the availability and
// overload sweeps disagreed on the retry default (8 vs 4). Run resolves
// both knobs through one rule:
//
//	v == 0       → the documented default below
//	v == Disabled (any negative) → explicitly off (0 passed to the cluster)
//	v > 0        → v
const (
	// DefaultRetryBudget is the per-query sub-query re-send budget every
	// sweep uses when RetryBudget is left at its zero value. One constant
	// for all sweeps: comfortably above the deepest drop/timeout cascade a
	// single outage produces, small enough that a truly partitioned query
	// fails fast.
	DefaultRetryBudget = 8

	// DefaultSubQueryTimeoutS arms the aggregator retry timer when
	// SubQueryTimeout is left at its zero value: comfortably above the
	// 30 ms SLA, so congestion alone does not trip it; drops are detected
	// through the simulator's drop notifications long before it fires.
	DefaultSubQueryTimeoutS = 100e-3

	// Disabled is the sentinel that turns an optional recovery knob
	// explicitly off. Any negative value works; the constant documents
	// intent at call sites (RetryBudget: experiments.Disabled).
	Disabled = -1
)

// resolve maps a recovery knob to the cluster config value by the rule
// above.
func resolve[T int | float64](v, def T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}
