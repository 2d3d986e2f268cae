package sim

// Step is one cycle for the tests in package sim_test (they import
// experiments, which imports sim, so they cannot sit in this package).
func (sm *SM) Step() { sm.step() }
