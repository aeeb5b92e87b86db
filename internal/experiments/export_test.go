package experiments

import "injectable/internal/host"

// World exposes the warmed world to the external tests in this directory.
func (wt *WarmTrial) World() *host.World { return wt.tw.W }
