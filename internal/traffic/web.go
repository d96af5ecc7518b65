package traffic

import (
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// WebPage describes a page to fetch. The paper's two pages: a small one
// (56 KB over 3 requests) and a large one (3 MB over 110 requests).
type WebPage struct {
	Name       string
	Requests   int
	TotalBytes int64
}

// SmallPage and LargePage are the pages used in §4.2.2.
var (
	SmallPage = WebPage{Name: "small", Requests: 3, TotalBytes: 56 << 10}
	LargePage = WebPage{Name: "large", Requests: 110, TotalBytes: 3 << 20}
)

// objectSize returns the per-request response size.
func (w WebPage) objectSize() int64 {
	if w.Requests <= 0 {
		return 0
	}
	return w.TotalBytes / int64(w.Requests)
}

// WebClient emulates a browser fetching pages from a server: a DNS lookup
// followed by up to webConns parallel persistent TCP connections over
// which the page's requests are issued (sequentially per connection), as
// the paper's cURL-based client does. All of it is best-effort traffic.
// It repeats fetches back to back and records each page-load time.
type WebClient struct {
	client, server *Host
	tcpCli, tcpSrv *tcp.Host
	page           WebPage
	flowBase       uint64
	fetchNo        uint64
	running        bool
	stopped        bool

	// PLT collects page-load times in milliseconds.
	PLT stats.Sample
	// FetchesDone counts completed page loads.
	FetchesDone int64
}

// WebConfig configures a web client.
type WebConfig struct {
	Client, Server *Host     // application hosts at each end
	TCPClient      *tcp.Host // TCP attachment of the client node
	TCPServer      *tcp.Host // TCP attachment of the server node
	Page           WebPage
	FlowBase       uint64 // flow id space for this client's traffic
}

// webConns is the number of parallel connections a page load opens.
const webConns = 4

// RequestSize is the size of one emulated HTTP GET.
const RequestSize = 100

// dnsSize is the size of the emulated DNS query/response datagrams.
const dnsSize = 64

// NewWebClient creates a web client; call Start to begin fetching.
func NewWebClient(cfg WebConfig) *WebClient {
	return &WebClient{
		client: cfg.Client, server: cfg.Server,
		tcpCli: cfg.TCPClient, tcpSrv: cfg.TCPServer,
		page: cfg.Page, flowBase: cfg.FlowBase,
	}
}

// Start begins fetching pages back to back until Stop.
func (w *WebClient) Start() {
	if w.running {
		return
	}
	w.running = true
	w.fetchPage()
}

// Stop ends the fetch loop after the current page completes.
func (w *WebClient) Stop() { w.stopped = true }

// fetchPage performs one complete page load.
func (w *WebClient) fetchPage() {
	start := w.client.Sim.Now()
	w.fetchNo++
	dnsFlow := w.flowBase + w.fetchNo*64

	// Step 1: DNS lookup (one UDP exchange with the server side).
	w.server.Register(dnsFlow, func(q *pkt.Packet) {
		rsp := w.server.pool.Get()
		rsp.Size = dnsSize
		rsp.Proto = pkt.ProtoUDP
		rsp.Src = w.server.ID
		rsp.Dst = q.Src
		rsp.Flow = q.Flow
		rsp.AC = q.AC
		rsp.Created = w.server.Sim.Now()
		rsp.SeqNo = q.SeqNo
		w.server.Out(rsp)
	})
	w.client.Register(dnsFlow, func(*pkt.Packet) {
		w.openConnections(start, dnsFlow)
	})
	req := w.client.pool.Get()
	req.Size = dnsSize
	req.Proto = pkt.ProtoUDP
	req.Src = w.client.ID
	req.Dst = w.server.ID
	req.Flow = dnsFlow
	req.AC = pkt.ACBE
	req.Created = start
	req.SeqNo = 1
	w.client.Out(req)
}

// openConnections runs the parallel-connection request fan-out.
func (w *WebClient) openConnections(start sim.Time, dnsFlow uint64) {
	nconn := webConns
	if w.page.Requests < nconn {
		nconn = w.page.Requests
	}
	objSize := w.page.objectSize()
	remaining := w.page.Requests // requests not yet assigned
	outstanding := nconn         // connections still working
	done := false

	finish := func() {
		if done {
			return
		}
		done = true
		w.PLT.AddTime(w.client.Sim.Now() - start)
		w.FetchesDone++
		if !w.stopped {
			w.fetchPage()
		} else {
			w.running = false
		}
	}

	for i := 0; i < nconn; i++ {
		flow := dnsFlow + 1 + uint64(i)
		conn := tcp.NewConn(tcp.Options{
			Client: w.tcpCli, Server: w.tcpSrv,
			AC: pkt.ACBE, Flow: flow,
		})
		w.client.Register(flow, conn.Client().Input)
		w.server.Register(flow, conn.Server().Input)

		cli, srv := conn.Client(), conn.Server()
		var reqsSent int
		var respExpect int64

		// Server: answer every complete request with one object.
		var served int64
		srv.OnReceive = func(total int64) {
			for total-served*RequestSize >= RequestSize {
				served++
				srv.SendData(objSize)
			}
		}
		// Client: issue the next request when the previous response
		// completes; release the connection when none remain.
		sendNext := func() {
			if remaining <= 0 {
				outstanding--
				if outstanding == 0 {
					finish()
				}
				return
			}
			remaining--
			reqsSent++
			respExpect += objSize
			cli.SendData(RequestSize)
		}
		cli.OnReceive = func(total int64) {
			if total >= respExpect && respExpect > 0 {
				sendNext()
			}
		}
		// Kick off after the handshake: queue the first request now;
		// TCP holds it until established.
		conn.Open()
		sendNext()
	}
}
