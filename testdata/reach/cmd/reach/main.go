// Command reach is the fixture of the reachability walk's tests.
package main

import "fixture/internal/lib"

func main() {
	var st lib.Stats
	_ = st.Count // a field read, not a call of Counter.Count
	var c lib.Counter
	reset := c.Reset // a method value
	reset()
	c.Add() // a call of Counter.Add, not of Gauge.Add
	var w lib.Worker
	stop := w.Stop // a method value named like the field Job.Stop
	stop()
	var tk lib.Ticker = &lib.Clock{}
	tk.Tick() // reaches Clock.Tick through the interface only
	lib.Run()
}
