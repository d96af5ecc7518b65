package wifi_test

import (
	"testing"

	"repro/wifi"
)

func TestTestbedUDP(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed:     1,
		Scheme:   wifi.SchemeAirtimeFQ,
		Stations: wifi.DefaultStations(),
	})
	sinks := make([]interface{ GoodputBps() float64 }, 0, 3)
	for _, st := range tb.Stations() {
		sinks = append(sinks, tb.DownloadUDP(st, 50e6))
	}
	tb.Run(5 * wifi.Second)
	if j := tb.JainIndex(); j < 0.99 {
		t.Errorf("Jain = %.3f, want ~1 under the airtime scheduler", j)
	}
	shares := tb.AirtimeShares()
	if len(shares) != 3 {
		t.Fatalf("shares = %v", shares)
	}
	for _, sink := range sinks {
		if sink.GoodputBps() <= 0 {
			t.Error("a sink saw no traffic")
		}
	}
	if tb.Now() != 5*wifi.Second {
		t.Errorf("Now = %v", tb.Now())
	}
}

func TestTestbedTCPAndPing(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed:     2,
		Scheme:   wifi.SchemeFQMAC,
		Stations: wifi.DefaultStations(),
	})
	recv := tb.DownloadTCP(tb.Stations()[0])
	up := tb.UploadTCP(tb.Stations()[1])
	png := tb.Ping(tb.Stations()[2], 100*wifi.Millisecond, 1)
	tb.Run(5 * wifi.Second)
	if recv() == 0 || up() == 0 {
		t.Error("TCP transfers made no progress")
	}
	if png.Received == 0 {
		t.Error("no ping replies")
	}
}

func TestTestbedVoIPAndWeb(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed:     3,
		Scheme:   wifi.SchemeAirtimeFQ,
		Stations: wifi.FourStations(),
	})
	sink := tb.VoIP(tb.Stations()[2], false)
	wc := tb.Web(tb.Stations()[0], wifi.SmallPage)
	wc.Start()
	tb.Run(5 * wifi.Second)
	wc.Stop()
	if sink.Received == 0 {
		t.Error("VoIP sink empty")
	}
	if sink.MOS() < 3.5 {
		t.Errorf("MOS %.2f on a lightly loaded network", sink.MOS())
	}
	if wc.FetchesDone == 0 {
		t.Error("no page fetches completed")
	}
}

func TestRateHelpers(t *testing.T) {
	if wifi.MCS(15, true).Mbps() < 144 {
		t.Error("MCS helper wrong")
	}
	if !wifi.LegacyRate(1).Legacy {
		t.Error("legacy helper wrong")
	}
	if len(wifi.Schemes) != 4 {
		t.Error("enumerations wrong")
	}
	if len(wifi.DefaultStations()) != 3 || len(wifi.FourStations()) != 4 {
		t.Error("station presets wrong")
	}
}

func TestDTTScheme(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed: 5, Scheme: wifi.SchemeDTT, Stations: wifi.DefaultStations(),
	})
	for _, st := range tb.Stations() {
		tb.DownloadUDP(st, 50e6)
	}
	tb.Run(6 * wifi.Second)
	if j := tb.JainIndex(); j < 0.95 {
		t.Errorf("DTT downlink Jain = %.3f, want near 1 without contention", j)
	}
}

func TestAutoRateFacade(t *testing.T) {
	tb := wifi.NewTestbed(wifi.TestbedConfig{
		Seed: 6, Scheme: wifi.SchemeAirtimeFQ, Stations: wifi.DefaultStations(),
	})
	rc := tb.EnableAutoRate(tb.Stations()[0], 40, 0)
	tb.DownloadUDP(tb.Stations()[0], 80e6)
	tb.Run(10 * wifi.Second)
	if rc.CurrentRate().Mbps() < 100 {
		t.Errorf("controller stuck at %v on a 40 dB link", rc.CurrentRate())
	}
}
