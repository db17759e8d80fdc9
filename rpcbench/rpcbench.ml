(* rpcbench: a wall-clock RPC benchmark over the library's public entry
   points.

     rpcbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Each workload is a closed loop of two client connections in one
   process, driving Rpc_serve or Rpc_gateway on the discrete-event
   simulator.  The simulator's virtual clock only orders events: every
   figure here is wall-clock time or an allocation count of the real
   code.  Every request is encoded afresh through the client API
   (Rpc_serve.request_frame / Rpc_gateway.client_frame), and every reply
   is checked byte for byte against its request payload (the server is
   an echo), with a sample also decoded by the rpcgen-style reference
   engine (Stub_naive) and compared with the value sent.

   --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
   runs the same workload untraced and then traced, and reports the
   per-layer metrics: spans taken here around each public call, counter
   deltas read through Obs.snapshot / Plan_cache.all_stats / the stats
   functions, and the server's own cached marshal closures re-timed on
   the request bodies the traced run captured.  Nothing inside the
   library is instrumented.  The last line of standard output is the
   JSON result; the lines before it are a readable report. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("rpcbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type payload = [ `Ints | `Rects | `Dirents ]

type topology =
  | Direct of Encoding.t
  | Gateway of { src : Encoding.t; dst : Encoding.t }

type workload = {
  wl_name : string;
  wl_topo : topology;
  wl_mix : (payload * int) list;
      (* operations issued in rotation, each with its payload size in
         bytes; sizes are fixed, the seed picks only the values *)
  wl_warmup : int;
      (* warm-up requests, about half a second's worth and far more than
         the calls that promote a tiered closure.  A count, not a
         duration: message sizes are seed-independent, so the
         simulator's virtual-time trajectory — which of the two
         connections' events interleave, and so the shape of the
         latency distribution — is then the same in every run. *)
}

(* Why these four: rpc_small isolates the fixed cost per request
   (framing, simulator events, parse, demux, flush, reply parse);
   rpc_bulk is dominated by marshal work, body and reply copies and GC;
   gateway_xenc runs two hops of framing and the fused forward relay,
   which converts endianness per element and decodes nothing;
   selfdesc_rpc drives the variable-header (msgpack) path, which
   allocates the most per byte.  BENCHMARK.json lists the last three
   only: rpc_small's latency distribution is so tight that its p50 and
   p99 jump with a shared host's speed (see README.md). *)
let workloads =
  [
    { wl_name = "rpc_small"; wl_topo = Direct Encoding.xdr;
      wl_mix = [ (`Ints, 64) ]; wl_warmup = 40_000 };
    { wl_name = "rpc_bulk"; wl_topo = Direct Encoding.xdr;
      wl_mix = [ (`Ints, 65536); (`Dirents, 65536) ]; wl_warmup = 1_000 };
    { wl_name = "gateway_xenc";
      wl_topo = Gateway { src = Encoding.cdr; dst = Encoding.xdr };
      wl_mix = [ (`Rects, 4096); (`Dirents, 4096) ]; wl_warmup = 4_000 };
    { wl_name = "selfdesc_rpc"; wl_topo = Direct Encoding.msgpack;
      wl_mix = [ (`Ints, 1024); (`Rects, 1024) ]; wl_warmup = 6_000 };
  ]

let client_enc wl =
  match wl.wl_topo with Direct e -> e | Gateway { src; _ } -> src

(* The presentation each encoding is served under, as the library's own
   bundled serve workload and gateway bench pick it. *)
let style wl =
  match wl.wl_topo with
  | Gateway _ -> `Corba
  | Direct e -> (
      match e.Encoding.name with
      | "cdr" -> `Corba
      | "xdr" -> `Rpcgen
      | _ -> `Fluke)

let present style =
  let spec = Corba_parser.parse ~file:"bench.idl" Paper_fixtures.bench_idl in
  match style with
  | `Corba -> Presgen_corba.generate spec [ "Bench" ]
  | `Rpcgen -> Presgen_rpcgen.generate spec [ "Bench" ]
  | `Fluke -> Presgen_fluke.generate spec [ "Bench" ]

(* Marshal closure calls per request: client encode, server decode,
   server encode; the gateway adds the request and reply relays. *)
let marshal_calls_per_req wl =
  match wl.wl_topo with Direct _ -> 3 | Gateway _ -> 5

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)
(* ------------------------------------------------------------------ *)

(* The seed re-draws the values of the paper's payloads
   (Paper_fixtures.payload) without changing their shape: strings and
   byte arrays keep their lengths, and each integer stays inside the
   range that shares its minimal msgpack width.  So every encoding sees
   the same message size for every seed, and msgpack the same mix of
   header widths. *)
let pool_size = 8

let msgpack_class n =
  if n >= 0 then
    if n < 0x80 then (0, 0x7f)
    else if n < 0x100 then (0x80, 0xff)
    else if n < 0x10000 then (0x100, 0xffff)
    else (0x10000, 0x7fff_ffff)
  else if n >= -32 then (-32, -1)
  else if n >= -128 then (-128, -33)
  else if n >= -32768 then (-32768, -129)
  else (-0x8000_0000, -32769)

let in_class rng n =
  let lo, hi = msgpack_class n in
  lo + Random.State.full_int rng (hi - lo + 1)

let printable rng = Char.chr (32 + Random.State.int rng 95)

let rec reseed rng (v : Value.t) : Value.t =
  match v with
  | Value.Vint n -> Value.Vint (in_class rng n)
  | Value.Vint_array a -> Value.Vint_array (Array.map (in_class rng) a)
  | Value.Vstring s -> Value.Vstring (String.map (fun _ -> printable rng) s)
  | Value.Vbytes b -> Value.Vbytes (Bytes.map (fun _ -> printable rng) b)
  | Value.Vchar _ -> Value.Vchar (printable rng)
  | Value.Varray a -> Value.Varray (Array.map (reseed rng) a)
  | Value.Vstruct a -> Value.Vstruct (Array.map (reseed rng) a)
  | _ -> invalid_arg "rpcbench: unexpected value in a paper payload"

let make_pools wl ~seed =
  Array.of_list
    (List.mapi
       (fun i (p, bytes) ->
         let rng = Random.State.make [| seed; i |] in
         let template = Paper_fixtures.payload p ~bytes in
         Array.init pool_size (fun _ -> reseed rng template))
       wl.wl_mix)

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                             *)
(* ------------------------------------------------------------------ *)

(* Aggregated spans around the public calls this file makes: total and
   self time (total minus the time covered by child spans) per span
   name.  Preallocated and allocation-free, so tracing adds only its
   clock reads. *)
module Span = struct
  let phase = 0 (* the whole traced phase; its self time is unattributed *)
  let loop = 1 (* Sim_core.run *)
  let deliver = 2 (* this file's reply callback *)
  let parse = 3 (* Rpc_serve.parse_replies *)
  let check = 4 (* this file's correctness check and bookkeeping *)
  let frame = 5 (* Rpc_serve.request_frame / Rpc_gateway.client_frame *)
  let send = 6 (* Rpc_serve.send / Rpc_gateway.send *)
  let n = 7
  let total = Array.make n 0
  let self = Array.make n 0
  let count = Array.make n 0
  let stk_id = Array.make 8 0
  let stk_t0 = Array.make 8 0
  let stk_child = Array.make 8 0
  let depth = ref 0

  let reset () =
    Array.fill total 0 n 0;
    Array.fill self 0 n 0;
    Array.fill count 0 n 0;
    depth := 0

  let enter id =
    let d = !depth in
    stk_id.(d) <- id;
    stk_child.(d) <- 0;
    depth := d + 1;
    stk_t0.(d) <- now_ns ()

  let leave () =
    let t = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let dur = t - stk_t0.(d) in
    let id = stk_id.(d) in
    total.(id) <- total.(id) + dur;
    self.(id) <- self.(id) + dur - stk_child.(d);
    count.(id) <- count.(id) + 1;
    if d > 0 then stk_child.(d - 1) <- stk_child.(d - 1) + dur

  let mean_self id = if count.(id) = 0 then 0. else float self.(id) /. float count.(id)
end

(* ------------------------------------------------------------------ *)
(* The system under test and its clients                                *)
(* ------------------------------------------------------------------ *)

type server = Srv of Rpc_serve.t | Gw of Rpc_gateway.t
type conn = Cs of Rpc_serve.conn | Cg of Rpc_gateway.gconn

type op = {
  o_id : int;
  o_ms : Paper_fixtures.method_spec;
  o_spec : Rpc_serve.op_spec;  (* the echo under the client encoding *)
  o_values : Value.t array;
  mutable o_ok : int;  (* this phase *)
  mutable o_samples : (int * bytes) list;  (* value index, reply payload *)
  mutable o_nsamples : int;
  mutable o_frames : bytes list;  (* request frames captured for replay *)
  o_payloads : bytes array;
      (* per value: the request payload (the frame after its 16-byte
         header) as first framed.  Every echo reply for that value must
         equal it byte for byte, so a reply that differs from its
         request, or a request that encodes the value differently, fails.
         One memcmp, so the check costs little next to the request. *)
  mutable o_nframes : int;
}

type client = {
  c_id : int;
  mutable c_conn : conn option;
  mutable c_nth : int;  (* requests issued so far: picks op and value *)
  mutable c_seq : int;
  mutable c_op : int;  (* the request in flight *)
  mutable c_val : int;
  mutable c_t0 : int;
  mutable c_waiting : bool;
}

type env = {
  e_wl : workload;
  e_sim : Sim_core.t;
  e_server : server;
  e_ops : op array;
  e_clients : client array;
}

let n_clients = 2
let max_samples = 32
let max_frames = 16

(* One phase of the closed loop at a time; the reply callbacks read and
   update it. *)
type phase = {
  mutable deadline : int;
  mutable max_requests : int;
  mutable traced : bool;
  mutable sample : bool;  (* keep replies for the reference decode *)
  mutable capture : bool;  (* keep request frames for the exec replay *)
  mutable wall_ns : int;  (* the phase's duration, issue to drain *)
  mutable attempted : int;
  mutable ok : int;
  mutable lat : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* per-request latency in ns, outside the OCaml heap so the
         benchmark's own storage does not show in heap_peak_mb *)
  mutable nlat : int;
}

let ph =
  {
    deadline = 0; max_requests = 0; traced = false;
    sample = false; capture = false; wall_ns = 0; attempted = 0; ok = 0;
    lat = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20);
    nlat = 0;
  }

let total_attempted = ref 0
let total_failed = ref 0
let failure_notes = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr total_failed;
      if List.length !failure_notes < 10 then
        failure_notes := msg :: !failure_notes)
    fmt

let record_latency ns =
  let cap = Bigarray.Array1.dim ph.lat in
  if ph.nlat = cap then begin
    let bigger = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * cap) in
    Bigarray.Array1.blit ph.lat (Bigarray.Array1.sub bigger 0 cap);
    ph.lat <- bigger
  end;
  Bigarray.Array1.unsafe_set ph.lat ph.nlat ns;
  ph.nlat <- ph.nlat + 1

let frame env op ~seq v =
  match env.e_server with
  | Srv _ -> Rpc_serve.request_frame op.o_spec ~seq [| v |]
  | Gw g -> Rpc_gateway.client_frame g op.o_ms ~iface:1 ~op:op.o_id ~seq [| v |]

let send_on conn f =
  match conn with Cs c -> Rpc_serve.send c f | Cg g -> Rpc_gateway.send g f

(* Issue the client's next request, or go idle once the phase is over.
   Latency starts here, at the client's frame call. *)
let issue env c =
  let t = now_ns () in
  if ph.attempted >= ph.max_requests || t >= ph.deadline then
    c.c_waiting <- false
  else begin
    let nops = Array.length env.e_ops in
    let oi = (c.c_nth + c.c_id) mod nops in
    let op = env.e_ops.(oi) in
    let vi = c.c_nth / nops mod pool_size in
    c.c_nth <- c.c_nth + 1;
    c.c_seq <- (c.c_seq + 1) land 0xffff_ffff;
    c.c_op <- oi;
    c.c_val <- vi;
    c.c_t0 <- t;
    c.c_waiting <- true;
    ph.attempted <- ph.attempted + 1;
    let tr = ph.traced in
    if tr then Span.enter Span.frame;
    let f = frame env op ~seq:c.c_seq op.o_values.(vi) in
    if tr then Span.leave ();
    if Bytes.length op.o_payloads.(vi) = 0 then
      op.o_payloads.(vi) <- Bytes.sub f 16 (Bytes.length f - 16);
    if ph.capture && op.o_nframes < max_frames then begin
      op.o_frames <- f :: op.o_frames;
      op.o_nframes <- op.o_nframes + 1
    end;
    if tr then Span.enter Span.send;
    send_on (Option.get c.c_conn) f;
    if tr then Span.leave ()
  end

let on_reply env c t (status, seq, payload) =
  if not c.c_waiting || seq <> c.c_seq then
    fail "client %d: unexpected reply seq %d" c.c_id seq
  else begin
    c.c_waiting <- false;
    let op = env.e_ops.(c.c_op) in
    match status with
    | Rpc_serve.Sok when Bytes.equal payload op.o_payloads.(c.c_val) ->
        ph.ok <- ph.ok + 1;
        record_latency (t - c.c_t0);
        op.o_ok <- op.o_ok + 1;
        if ph.sample && op.o_ok land 255 = 1 && op.o_nsamples < max_samples
        then begin
          op.o_samples <- (c.c_val, payload) :: op.o_samples;
          op.o_nsamples <- op.o_nsamples + 1
        end
    | Rpc_serve.Sok ->
        fail "%s seq %d: reply differs from request" op.o_ms.Paper_fixtures.ms_name seq
    | Rpc_serve.Sshed | Rpc_serve.Sbad_request | Rpc_serve.Sunknown_op ->
        fail "%s seq %d: status %d" op.o_ms.Paper_fixtures.ms_name seq
          (Rpc_serve.status_code status)
  end

let deliver env c data =
  let tr = ph.traced in
  if tr then begin
    Span.enter Span.deliver;
    Span.enter Span.parse
  end;
  let replies = Rpc_serve.parse_replies data in
  let t = now_ns () in
  if tr then begin
    Span.leave ();
    Span.enter Span.check
  end;
  let was_waiting = c.c_waiting in
  List.iter (on_reply env c t) replies;
  if tr then Span.leave ();
  if was_waiting && not c.c_waiting then issue env c;
  if tr then Span.leave ()

(* Run one closed-loop phase to its deadline (or request budget) and
   drain it. *)
let run_phase env ~seconds ~max_requests ~traced ~sample ~capture =
  ph.max_requests <- max_requests;
  ph.traced <- traced;
  ph.sample <- sample;
  ph.capture <- capture;
  ph.attempted <- 0;
  ph.ok <- 0;
  ph.nlat <- 0;
  Array.iter
    (fun op ->
      op.o_ok <- 0;
      op.o_samples <- [];
      op.o_nsamples <- 0;
      op.o_frames <- [];
      op.o_nframes <- 0)
    env.e_ops;
  Span.reset ();
  let t0 = now_ns () in
  let dur = if seconds = infinity then max_int / 2 else int_of_float (seconds *. 1e9) in
  ph.deadline <- t0 + dur;
  if traced then Span.enter Span.phase;
  Array.iter (fun c -> issue env c) env.e_clients;
  if traced then Span.enter Span.loop;
  Sim_core.run env.e_sim;
  if traced then Span.leave ();
  Array.iter
    (fun c ->
      if c.c_waiting then begin
        fail "client %d: request seq %d never answered" c.c_id c.c_seq;
        c.c_waiting <- false
      end)
    env.e_clients;
  if traced then Span.leave ();
  ph.wall_ns <- now_ns () - t0;
  ph.traced <- false;
  total_attempted := !total_attempted + ph.attempted

(* Completed requests per wall second of the phase. *)
let phase_rps () = float ph.ok /. (float ph.wall_ns /. 1e9)

(* The phase's request latencies in us, ascending. *)
let phase_latencies () =
  let lat = Array.init ph.nlat (fun i -> float (Bigarray.Array1.get ph.lat i) /. 1e3) in
  Array.sort Float.compare lat;
  lat

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

type setup_times = { present_ns : int; register_ns : int; total_ns : int }

(* Present the IDL, create the server or gateway, register the ops
   (plan compilation) and complete the first round trip, from cold
   plan caches. *)
let setup wl pools =
  Plan_cache.reset_all ();
  Gc.full_major ();
  let t0 = now_ns () in
  let pc = present (style wl) in
  let mss =
    List.map
      (fun (p, _) -> Paper_fixtures.request_spec pc ~op:(Paper_fixtures.op_of_payload p))
      wl.wl_mix
  in
  let t1 = now_ns () in
  let sim = Sim_core.create () in
  let server =
    match wl.wl_topo with
    | Direct _ ->
        Srv
          (Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim)
             ~egress:(Link.ethernet_100 ~sim) ())
    | Gateway { src; dst } -> Gw (Rpc_gateway.create ~sim ~src ~dst ())
  in
  let t2 = now_ns () in
  let ops =
    Array.of_list
      (List.mapi
         (fun i ms ->
           let id = i + 1 in
           let spec = Rpc_serve.echo_op ~iface:1 ~op:id ~enc:(client_enc wl) ms in
           (match server with
           | Srv s -> Rpc_serve.register s spec
           | Gw g -> Rpc_gateway.register g ms ~iface:1 ~op:id);
           {
             o_id = id; o_ms = ms;
             o_spec = spec; o_values = pools.(i); o_ok = 0;
             o_samples = []; o_nsamples = 0; o_frames = []; o_nframes = 0;
             o_payloads = Array.make pool_size Bytes.empty;
           })
         mss)
  in
  let t3 = now_ns () in
  let clients =
    Array.init n_clients (fun i ->
        { c_id = i; c_conn = None; c_nth = 0; c_seq = 0; c_op = 0; c_val = 0;
          c_t0 = 0; c_waiting = false })
  in
  let env =
    { e_wl = wl; e_sim = sim; e_server = server; e_ops = ops; e_clients = clients }
  in
  Array.iter
    (fun c ->
      let deliver data = deliver env c data in
      c.c_conn <-
        Some
          (match server with
          | Srv s -> Cs (Rpc_serve.connect s ~deliver)
          | Gw g -> Cg (Rpc_gateway.connect g ~deliver)))
    clients;
  run_phase env ~seconds:infinity ~max_requests:1 ~traced:false ~sample:false
    ~capture:false;
  let t4 = now_ns () in
  (env, { present_ns = t1 - t0; register_ns = t3 - t2; total_ns = t4 - t0 })

(* ------------------------------------------------------------------ *)
(* Counters read through the public stats functions                     *)
(* ------------------------------------------------------------------ *)

type counters = {
  k_minor : float;
  k_promoted : float;
  k_major : float;
  k_major_gcs : int;
  k_lookups : int;
  k_misses : int;
  k_obs : (string, float) Hashtbl.t;
  k_events : int;
  k_flushes : int;
}

let server_stats env =
  match env.e_server with
  | Srv s -> Rpc_serve.stats s
  | Gw g -> (Rpc_gateway.stats g).Rpc_gateway.gs_backend

let read_counters env =
  let minor, promoted, major = Gc.counters () in
  let lookups, misses =
    List.fold_left
      (fun (l, m) (_, (st : Plan_cache.stats)) ->
        (l + st.Plan_cache.hits + st.Plan_cache.misses, m + st.Plan_cache.misses))
      (0, 0) (Plan_cache.all_stats ())
  in
  let obs = Hashtbl.create 64 in
  List.iter
    (function
      | Obs.Scounter (name, v) -> Hashtbl.replace obs name (float v)
      | Obs.Svalue (name, v) -> Hashtbl.replace obs name v
      | Obs.Sgauge _ | Obs.Shist _ -> ())
    (Obs.snapshot ());
  {
    k_minor = minor; k_promoted = promoted; k_major = major;
    k_major_gcs = (Gc.quick_stat ()).Gc.major_collections;
    k_lookups = lookups; k_misses = misses; k_obs = obs;
    k_events = Sim_core.events_processed env.e_sim;
    k_flushes = (server_stats env).Rpc_serve.st_flushes;
  }

let obs_delta a b name =
  match (Hashtbl.find_opt a.k_obs name, Hashtbl.find_opt b.k_obs name) with
  | Some x, Some y -> y -. x
  | _ -> failwith ("rpcbench: no instrument " ^ name ^ " in Obs.snapshot")

(* allocated words: minor + major - promoted, so promotions count once *)
let words a b =
  b.k_minor +. b.k_major -. b.k_promoted -. (a.k_minor +. a.k_major -. a.k_promoted)

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

(* Decode sampled replies with the rpcgen-style engine, which shares no
   plan compiler with the code under test, and compare with the value
   sent. *)
let reference_check env =
  let enc = client_enc env.e_wl in
  Array.iter
    (fun op ->
      let ms = op.o_ms in
      let dec =
        Stub_naive.compile_decoder ~enc ~mint:ms.Paper_fixtures.ms_mint
          ~named:ms.Paper_fixtures.ms_named ms.Paper_fixtures.ms_droots
      in
      List.iter
        (fun (vi, payload) ->
          let r = Mbuf.reader_of_bytes payload in
          match dec r with
          | [| v |] when Value.equal v op.o_values.(vi) && Mbuf.remaining r = 0 ->
              ()
          | _ ->
              fail "%s: reference decode differs from the value sent"
                ms.Paper_fixtures.ms_name
          | exception e ->
              fail "%s: reference decode raised %s" ms.Paper_fixtures.ms_name
                (Printexc.to_string e))
        op.o_samples;
      if op.o_nsamples = 0 then fail "%s: no reply sampled" ms.Paper_fixtures.ms_name)
    env.e_ops

let accounting_errors env ~pool0 ~timed_misses =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let p = Mbuf.pool_stats () in
  if p.Mbuf.writers_outstanding <> pool0.Mbuf.writers_outstanding then
    err "writer pool: %d outstanding, %d at baseline" p.Mbuf.writers_outstanding
      pool0.Mbuf.writers_outstanding;
  if p.Mbuf.readers_outstanding <> pool0.Mbuf.readers_outstanding then
    err "reader pool: %d outstanding, %d at baseline" p.Mbuf.readers_outstanding
      pool0.Mbuf.readers_outstanding;
  let st = server_stats env in
  let open Rpc_serve in
  if st.st_frames_in <> st.st_accepted + st.st_shed + st.st_bad_request + st.st_unknown_op
  then
    err "server frames_in %d <> accepted %d + shed %d + bad %d + unknown %d"
      st.st_frames_in st.st_accepted st.st_shed st.st_bad_request st.st_unknown_op;
  if st.st_killed_conns <> 0 then err "server killed %d connections" st.st_killed_conns;
  (match env.e_server with
  | Srv _ -> ()
  | Gw g ->
      let gs = Rpc_gateway.stats g in
      let open Rpc_gateway in
      if gs.gs_pending <> 0 then err "gateway: %d requests still pending" gs.gs_pending;
      if gs.gs_requests_in <> gs.gs_relayed_req + gs.gs_relay_errors + gs.gs_unknown_op
      then
        err "gateway requests_in %d <> relayed %d + errors %d + unknown %d"
          gs.gs_requests_in gs.gs_relayed_req gs.gs_relay_errors gs.gs_unknown_op);
  if timed_misses <> 0 then
    err "%d plan-cache misses in the timed phase: warm-up did not finish" timed_misses;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Exec replay (traced runs)                                            *)
(* ------------------------------------------------------------------ *)

let replay_budget_ns = 100_000_000

(* Mean ns per call of [f i], cycling i over [0, n), for the budget. *)
let time_calls f n =
  let calls = ref 0 in
  let t0 = now_ns () in
  let t = ref t0 in
  while !t - t0 < replay_budget_ns do
    for _ = 1 to 8 do
      f (!calls mod n);
      incr calls
    done;
    t := now_ns ()
  done;
  float (!t - t0) /. float !calls

let body_reader f = Mbuf.reader_of_bytes ~off:16 ~len:(Bytes.length f - 16) f

(* Re-time the server's own marshal closures on the request bodies the
   traced phase captured.  The compile calls hit the plan caches and
   return the very closures the server (and the gateway's relay)
   registered.  Per request: the mean over the operations, which the
   clients issue in equal rotation. *)
let replay env =
  let dec_ns = ref 0. and enc_ns = ref 0. and fwd_ns = ref 0. in
  Array.iter
    (fun op ->
      let ms = op.o_ms in
      let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
      let frames = Array.of_list op.o_frames in
      let n = Array.length frames in
      if n = 0 then failwith "rpcbench: no request captured for the exec replay";
      let time_server ~enc bodies =
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named ms.Paper_fixtures.ms_droots
        in
        let encd =
          Stub_opt.compile_encoder ~enc ~mint ~named ms.Paper_fixtures.ms_roots
        in
        dec_ns := !dec_ns +. time_calls (fun i -> ignore (dec (bodies i))) n;
        let vals = Array.init n (fun i -> dec (bodies i)) in
        enc_ns :=
          !enc_ns
          +. time_calls
               (fun i ->
                 let m = Mbuf.acquire () in
                 encd m vals.(i);
                 Mbuf.release m)
               n
      in
      match env.e_wl.wl_topo with
      | Direct enc -> time_server ~enc (fun i -> body_reader frames.(i))
      | Gateway { src; dst } ->
          let droots = List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots in
          let fwd a b =
            Stub_forward.compile_forward ~src:a ~dst:b ~mint ~named droots
              ms.Paper_fixtures.ms_roots
          in
          let fwd_req = fwd src dst and fwd_rep = fwd dst src in
          let relay f r =
            let w = Mbuf.acquire () in
            f r w;
            Mbuf.release w
          in
          let backend_bodies =
            Array.map
              (fun f ->
                let w = Mbuf.acquire () in
                fwd_req (body_reader f) w;
                let b = Mbuf.contents w in
                Mbuf.release w;
                b)
              frames
          in
          fwd_ns :=
            !fwd_ns
            +. time_calls (fun i -> relay fwd_req (body_reader frames.(i))) n
            +. time_calls
                 (fun i -> relay fwd_rep (Mbuf.reader_of_bytes backend_bodies.(i)))
                 n;
          time_server ~enc:dst (fun i -> Mbuf.reader_of_bytes backend_bodies.(i)))
    env.e_ops;
  let nops = float (Array.length env.e_ops) in
  (!dec_ns /. nops, !enc_ns /. nops, !fwd_ns /. nops)

(* ------------------------------------------------------------------ *)
(* Configuration and declared metrics                                   *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (".git/" ^ r) with
      | s -> String.trim s
      | exception Sys_error _ -> r)
  | head -> head

(* Numbers are only comparable under the library defaults: the stub
   timing gate and the request recorder off, no tier or verifier
   override from the environment. *)
let config_errors () =
  List.filter_map
    (fun v ->
      Option.map (fun x -> Printf.sprintf "%s=%S is set" v x) (Sys.getenv_opt v))
    [ "FLICK_STAGE"; "FLICK_VERIFY_PLANS" ]
  @ (if Obs.timing_enabled () then [ "the stub timing gate is on" ] else [])
  @ if Obs_request.enabled () then [ "the request recorder is on" ] else []

(* The (name, unit) pairs BENCHMARK.json declares under [key]. *)
let declared key =
  let json =
    match Obs_json.parse (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (Obs_json.member key json) Obs_json.to_list with
  | None -> failwith ("BENCHMARK.json: no list " ^ key)
  | Some l ->
      List.map
        (fun m ->
          let field k =
            match Option.bind (Obs_json.member k m) Obs_json.to_string with
            | Some s -> s
            | None -> failwith ("BENCHMARK.json: metric without " ^ k)
          in
          (field "name", field "unit"))
        l

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* Set-up is repeated, with a pause between repetitions so they sample
   more than one moment of the host's speed; setup_s is their median. *)
let setup_reps = 21
let setup_gap_s = 0.04

let metric name unit value = { Benchstat.m_name = name; m_value = value; m_unit = unit }

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map (fun w -> w.wl_name) workloads));
      ("--seed", Arg.Set_int seed, " seed for the payload values");
      ("--seconds", Arg.Set_float seconds, " measured wall seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rpcbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.wl_name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 1. then die "--seconds must be at least 1";
  (match config_errors () with
  | [] -> ()
  | errs -> die "refusing to run off the library defaults: %s" (String.concat "; " errs));
  let expected = declared (if !trace = 0 then "end_to_end" else "per_layer") in
  Printf.printf "# rpcbench workload=%s seed=%d seconds=%g trace=%d\n" wl.wl_name !seed
    !seconds !trace;
  Printf.printf "# rev=%s ocaml=%s cores=%d clients=%d\n" (git_rev ()) Sys.ocaml_version
    (Domain.recommended_domain_count ()) n_clients;
  let pools = make_pools wl ~seed:!seed in
  let pool0 = Mbuf.pool_stats () in
  let setups =
    List.init setup_reps (fun i ->
        if i > 0 then Unix.sleepf setup_gap_s;
        setup wl pools)
  in
  let med f =
    Benchstat.median (Array.of_list (List.map (fun (_, s) -> float (f s)) setups))
  in
  let setup_s = med (fun s -> s.total_ns) /. 1e9 in
  let acct = ref [] in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* One measured phase on a set-up environment: the warm-up (a fixed
     request count), then the timed closed loop, then its correctness
     and accounting checks.  Returns the counters around the timed loop
     and the top of the heap at the end of the warm-up. *)
  let timed env ~seconds ~traced =
    run_phase env ~seconds:infinity ~max_requests:wl.wl_warmup ~traced:false
      ~sample:false ~capture:false;
    let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
    Gc.full_major ();
    let a = read_counters env in
    run_phase env ~seconds ~max_requests:max_int ~traced ~sample:true ~capture:traced;
    let b = read_counters env in
    if ph.ok = 0 then die "no request completed in the timed phase";
    reference_check env;
    acct := !acct @ accounting_errors env ~pool0 ~timed_misses:(b.k_misses - a.k_misses);
    note "%s phase: %d requests in %.3f s" (if traced then "traced" else "untraced") ph.ok
      (float ph.wall_ns /. 1e9);
    (a, b, top_heap)
  in
  let metrics =
    if !trace = 0 then begin
      let env = fst (List.nth setups (setup_reps - 1)) in
      let a, b, top_heap = timed env ~seconds:!seconds ~traced:false in
      let lat = phase_latencies () in
      let beyond = Benchstat.beyond lat 0.99 in
      if beyond < 10 then die "only %d samples beyond p99: run longer" beyond;
      note "latency: %d samples, %d beyond p99" (Array.length lat) beyond;
      [
        metric "rps" "req/s" (phase_rps ());
        metric "lat_p50_us" "us" (Benchstat.percentile lat 0.5);
        metric "lat_p99_us" "us" (Benchstat.percentile lat 0.99);
        metric "words_per_req" "words" (Benchstat.per_req (words a b) ~requests:ph.ok);
        metric "heap_peak_mb" "MB" (float top_heap *. 8. /. 1e6);
        metric "ok_rate" "ratio" (1. -. (float !total_failed /. float !total_attempted));
        metric "setup_s" "s" setup_s;
      ]
    end
    else begin
      (* each half on its own environment, so both start from the same
         virtual-time state and the overhead compares like with like *)
      let half = !seconds /. 2. in
      ignore (timed (fst (List.nth setups (setup_reps - 1))) ~seconds:half ~traced:false);
      let rps_untraced = phase_rps () in
      let env = fst (setup wl pools) in
      let a, b, _ = timed env ~seconds:half ~traced:true in
      let n = ph.ok in
      let rps_traced = phase_rps () in
      let per x = Benchstat.per_req x ~requests:n in
      let self id = float Span.self.(id) in
      let dec_ns, enc_ns, fwd_ns = replay env in
      let loop_self = per (self Span.loop) in
      let staged =
        obs_delta a b "stage.staged_calls" +. obs_delta a b "forward.staged_calls"
      in
      let wall = per (float Span.total.(Span.phase)) in
      let residual = per (self Span.phase) in
      (match wl.wl_topo with
      | Direct _ -> note "exec.forward_* are 0: a direct server relays nothing"
      | Gateway _ -> ());
      if staged = 0. then
        note "exec.staged_share is 0: no marshal closure here is staged";
      note "tracing overhead: %.0f req/s traced vs %.0f untraced" rps_traced rps_untraced;
      note
        "reconciliation per request: wall %.0f ns = spans %.0f ns + unattributed %.0f ns"
        wall (wall -. residual) residual;
      [
        metric "frontend.present_ms" "ms" (med (fun s -> s.present_ns) /. 1e6);
        metric "opt.register_ms" "ms" (med (fun s -> s.register_ns) /. 1e6);
        metric "opt.cache_lookups_per_req" "count"
          (per (float (b.k_lookups - a.k_lookups)));
        metric "opt.cache_misses_timed" "count" (float (b.k_misses - a.k_misses));
        metric "serve.request_frame_ns" "ns" (Span.mean_self Span.frame);
        metric "serve.send_ns" "ns" (Span.mean_self Span.send);
        metric "serve.parse_replies_ns" "ns" (Span.mean_self Span.parse);
        metric "serve.loop_self_ns" "ns" loop_self;
        metric "serve.loop_residual_ns" "ns" (loop_self -. dec_ns -. enc_ns -. fwd_ns);
        metric "serve.flushes_per_req" "count" (per (float (b.k_flushes - a.k_flushes)));
        metric "sim.events_per_req" "count" (per (float (b.k_events - a.k_events)));
        metric "exec.encode_ns" "ns" enc_ns;
        metric "exec.decode_ns" "ns" dec_ns;
        metric "exec.forward_ns" "ns" fwd_ns;
        metric "exec.staged_share" "ratio"
          (staged /. float (marshal_calls_per_req wl * n));
        metric "exec.forward_copied_bytes_per_req" "bytes"
          (per (obs_delta a b "forward.copied_bytes"));
        metric "exec.forward_borrowed_bytes_per_req" "bytes"
          (per (obs_delta a b "forward.borrowed_bytes"));
        metric "exec.forward_fallback_fields_per_req" "count"
          (per (obs_delta a b "forward.fallback_fields"));
        metric "wire.bytes_copied_per_req" "bytes"
          (per (obs_delta a b "wire.bytes_copied"));
        metric "wire.bytes_borrowed_per_req" "bytes"
          (per (obs_delta a b "wire.bytes_borrowed"));
        metric "wire.read_bytes_copied_per_req" "bytes"
          (per (obs_delta a b "wire.read_bytes_copied"));
        metric "gc.minor_words_per_req" "words" (per (b.k_minor -. a.k_minor));
        metric "gc.promoted_words_per_req" "words" (per (b.k_promoted -. a.k_promoted));
        metric "gc.major_collections_per_kreq" "count"
          (Benchstat.per_kreq (float (b.k_major_gcs - a.k_major_gcs)) ~requests:n);
        metric "bench.own_ns" "ns" (per (self Span.deliver +. self Span.check));
        metric "trace.rps_untraced" "req/s" rps_untraced;
        metric "trace.rps_traced" "req/s" rps_traced;
        metric "trace.overhead_rps" "req/s" (rps_traced -. rps_untraced);
        metric "trace.wall_ns_per_req" "ns" wall;
        metric "trace.span_self_ns_per_req" "ns" (wall -. residual);
        metric "trace.residual_ns_per_req" "ns" residual;
      ]
    end
  in
  let acct = !acct in
  let emitted = List.map (fun m -> (m.Benchstat.m_name, m.Benchstat.m_unit)) metrics in
  if List.sort compare emitted <> List.sort compare expected then
    die "the metrics emitted differ from those BENCHMARK.json declares";
  List.iter
    (fun m ->
      Printf.printf "%-36s %16.4f %s\n" m.Benchstat.m_name m.Benchstat.m_value
        m.Benchstat.m_unit)
    metrics;
  List.iter (fun s -> Printf.printf "# %s\n" s) (List.rev !notes);
  let failed = !total_failed in
  Printf.printf "# requests attempted %d, failed %d (fail_rate %g)\n" !total_attempted
    failed (float failed /. float !total_attempted);
  List.iter
    (fun s -> Printf.eprintf "rpcbench: failure: %s\n" s)
    (List.rev !failure_notes);
  List.iter (fun s -> Printf.eprintf "rpcbench: accounting: %s\n" s) acct;
  let correct = failed = 0 && acct = [] in
  print_endline
    (Benchstat.result_line ~correct ~attempted:!total_attempted ~failed metrics);
  exit (if correct then 0 else 1)
