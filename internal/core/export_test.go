package core

// SetEffectiveThreshold overrides the admission/squish ceiling, standing
// in for a run of missed deadlines that shrank it.
func (c *Controller) SetEffectiveThreshold(v int) { c.effectiveThreshold = v }
