package main

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// The fixed platform every workload runs on: a disk array with seek
// geometry, width-4 striping with SCAN-EDF rounds, the shared buffer
// pool, one client LAN and a finite admission budget.  Nothing here
// scales with the session count, so the capacity search sees a real
// knee.
const (
	numDisks    = 8
	stripeWidth = 4
	diskBW      = 80 * media.MBPerSecond
	diskBytes   = int64(1) << 32
	diskSeek    = 10 * avtime.Millisecond
	diskSettle  = 1 * avtime.Millisecond
	diskTracks  = 16

	linkID      = "lan0"
	linkBW      = 2000 * media.MBPerSecond
	linkLatency = 2 * avtime.Millisecond
	linkSeed    = 7

	poolCapacity  = 8 // pool chunks per attached stream
	poolLookahead = 4

	// tolerance is how late a frame may be presented before it counts
	// as a deadline miss.
	tolerance = 50 * avtime.Millisecond
)

// budget is the database's admission budget for database-located
// activities.
var budget = sched.Resources{
	Buffers: 8192,
	CPU:     300 * media.MBPerSecond,
	Bus:     300 * media.MBPerSecond,
}

// openPlatform opens a database on the fixed platform, with the arm's
// worker counts.
func openPlatform(name string, a arm, tr *tracer, parent int) (*core.Database, error) {
	sp := tr.begin("core.open", parent, "")
	defer tr.end(sp)
	db, err := core.Open(core.Config{
		Name:          name,
		Resources:     budget,
		Workers:       a.workers,
		EngineWorkers: a.workers,
		Striping:      storage.StripePolicy{Width: stripeWidth, Seeks: true, Rounds: true},
		Cache:         storage.CachePolicy{Capacity: poolCapacity, Lookahead: poolLookahead},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < numDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), diskBytes, diskBW, diskSeek)
		if err := d.SetGeometry(diskTracks, diskSettle); err != nil {
			return nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
	}
	if err := db.Network().AddLink(netsim.NewLink(linkID, linkBW, linkLatency, 0, linkSeed)); err != nil {
		return nil, err
	}
	return db, nil
}
