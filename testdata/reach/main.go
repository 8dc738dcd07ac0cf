// Command reach is the fixture of TestReachIgnoresFieldReads.
package main

import "fixture/lib"

func main() {
	var st lib.Stats
	_ = st.Count // a field read, not a call of Counter.Count
	var c lib.Counter
	reset := c.Reset // a method value
	reset()
	lib.Run()
}
