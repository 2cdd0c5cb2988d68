package young

// ShadowAtOne lets the external tests in this directory build collectors
// whose nursery runs the tenured arm of the step at threshold 1.
func ShadowAtOne(on bool) { shadowAtOne = on }
