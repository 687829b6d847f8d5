package core

// SetEffectiveThreshold overrides the admission/squish ceiling, standing
// in for a run of missed deadlines that shrank it.
func (c *Controller) SetEffectiveThreshold(v int) { c.effectiveThreshold = v }

// UsageEstimates returns the job's smoothed usage ratio and usage in ppt.
func (j *Job) UsageEstimates() (ratio, ppt float64) { return j.usageEWMA, j.usedPPT }
