// Package goroutinejoin is the fixture for the goroutine-join analyzer:
// every go statement needs a matching join, or a signature that visibly
// hands the join to the caller.
package goroutinejoin

import "sync"

// badLeak fires and forgets.
func badLeak(work func()) {
	go work() // want "no matching join"
}

// badDoubleLeak leaks twice; each go statement is its own finding.
func badDoubleLeak(work func()) {
	go work() // want "no matching join"
	go work() // want "no matching join"
}

// goodWaitGroup joins via WaitGroup.Wait.
func goodWaitGroup(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// goodChannelReceive joins by receiving the done signal.
func goodChannelReceive(work func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	<-done
}

// goodRangeJoin drains the results channel, which joins the producer.
func goodRangeJoin(xs []int) int {
	ch := make(chan int)
	go func() {
		for _, v := range xs {
			ch <- v
		}
		close(ch)
	}()
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// badWorkerPool feeds workers that range over the job channel but never
// waits for them: the receive inside the goroutine is its work, not a join.
func badWorkerPool(xs []int, work func(int)) {
	next := make(chan int)
	go func() { // want "no matching join"
		for v := range next {
			work(v)
		}
	}()
	for _, v := range xs {
		next <- v
	}
	close(next)
}

// delegates hands the join to the caller by returning the channel; exempt
// here, but it exports the "goroutinejoin.unjoined" fact.
func delegates(xs []int) <-chan int {
	ch := make(chan int, len(xs))
	go func() {
		for _, v := range xs {
			ch <- v
		}
		close(ch)
	}()
	return ch
}

// delegatesViaWaitGroup registers on the caller's WaitGroup.
func delegatesViaWaitGroup(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}

// badCaller starts delegates' goroutine and drops the channel: the join
// obligation followed the fact here.
func badCaller(xs []int) {
	delegates(xs) // want "starts a goroutine this function never joins"
}

// goodCaller receives the delegated channel.
func goodCaller(xs []int) int {
	total := 0
	for v := range delegates(xs) {
		total += v
	}
	return total
}

// suppressedLeak is a justified fire-and-forget (process-lifetime pump).
func suppressedLeak(work func()) {
	go work() //nolint:goroutinejoin // fixture: process-lifetime pump
}
