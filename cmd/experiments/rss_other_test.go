//go:build !linux && !darwin

package main

// peakRSSBytes is unavailable on platforms whose ru_maxrss units we have
// not audited (they differ per OS: Linux KB, darwin bytes); the RSS
// tests skip on 0.
func peakRSSBytes() int64 { return 0 }
