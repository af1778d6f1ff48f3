//go:build race

package cache

func init() { raceEnabled = true }
