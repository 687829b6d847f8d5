package realrate

import (
	"fmt"

	"repro/internal/kernel"
)

// SetDisablePools turns the free-list recycling of the spawn→exit life
// cycle off (or back on) in cfg, for the tests that prove pooling moves no
// dispatch edge.
func SetDisablePools(cfg *Config, off bool) { cfg.disablePools = off }

// FoldSpawnOptions folds opts into a spawn spec the way Spawn does and
// returns the spec, printed, as it stood when the fold stopped, with the
// error that stopped it.
func FoldSpawnOptions(opts ...SpawnOption) (string, error) {
	sp := spawnSpec{affinity: kernel.AffinityAny}
	var err error
	for _, o := range opts {
		if err = sp.add(o); err != nil {
			break
		}
	}
	return fmt.Sprintf("%+v", sp), err
}
