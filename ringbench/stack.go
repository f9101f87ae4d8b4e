package main

import (
	"errors"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"debruijnring/fleet"
)

// fleetStack is the production serving path assembled in-process from
// public constructors: a standby shard, a primary shard replicating to
// it, and a router in front, each on its own loopback listener and
// each wrapped by the tracer.
type fleetStack struct {
	Standby    *fleet.Shard
	Primary    *fleet.Shard
	Router     *fleet.Router
	RouterURL  string
	PrimaryDir string
	servers    []*http.Server
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *fleetStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func startFleet(dir string, tr *tracer) (*fleetStack, error) {
	s := &fleetStack{PrimaryDir: filepath.Join(dir, "primary")}
	var err error
	s.Standby, err = fleet.NewShard(fleet.ShardConfig{JournalDir: filepath.Join(dir, "standby"), Standby: true})
	if err != nil {
		return nil, err
	}
	standbyURL, err := s.serve(tr.wrap(spanReplica, s.Standby.Handler()))
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Primary, err = fleet.NewShard(fleet.ShardConfig{JournalDir: s.PrimaryDir, ReplicateTo: standbyURL})
	if err != nil {
		s.Close()
		return nil, err
	}
	primaryURL, err := s.serve(tr.wrap(spanPrimary, s.Primary.Handler()))
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Router, err = fleet.NewRouter([]fleet.ShardGroup{{Name: "g0", Primary: primaryURL, Replica: standbyURL}}, fleet.RouterOptions{})
	if err != nil {
		s.Close()
		return nil, err
	}
	if s.RouterURL, err = s.serve(tr.wrap(spanRouter, s.Router)); err != nil {
		s.Close()
		return nil, err
	}
	if s.Primary.Replication().State != fleet.ReplicaOK {
		s.Close()
		return nil, errors.New("primary does not replicate to the standby")
	}
	return s, nil
}

// Close stops the router, shuts the primary's sessions (their closing
// snapshots still replicate), then the listeners and the standby.
func (s *fleetStack) Close() {
	if s.Router != nil {
		s.Router.Close()
	}
	if s.Primary != nil {
		s.Primary.Sessions.Close()
		if rs, ok := s.Primary.Sessions.Store().(*fleet.ReplicatedStore); ok {
			rs.Close()
		}
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.Standby != nil {
		s.Standby.Sessions.Close()
		s.Standby.Replica.Close()
	}
	if s.Primary != nil {
		s.Primary.Replica.Close()
	}
}
