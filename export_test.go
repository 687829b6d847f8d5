package realrate

// SetDisablePools turns the free-list recycling of the spawn→exit life
// cycle off (or back on) in cfg, for the tests that prove pooling moves no
// dispatch edge.
func SetDisablePools(cfg *Config, off bool) { cfg.disablePools = off }
