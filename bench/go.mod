// The benchmark is a module of its own so that it builds from its own
// build file; the replace directive points it at the repository it
// measures. The module path sits under p4p/ so that p4p/internal/...
// stays importable. See README.md, "Why a nested module".
module p4p/bench

go 1.22

require p4p v0.0.0

replace p4p => ../
