(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 4) plus ablations for the section 3
   optimizations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig3       -- one artifact
     dune exec bench/main.exe -- --full  -- the paper's full size sweeps

   Methodology notes live in EXPERIMENTS.md.  Shapes, not absolute
   numbers, are the reproduction target: the stub engines stand in for
   generated C on the paper's testbed (see DESIGN.md). *)

open Bechamel

let full = ref false
let smoke = ref false

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

let clock = Toolkit.Instance.monotonic_clock

(* nanoseconds per run of [f], via a Bechamel Test.make *)
let measure_ns name f =
  (* settle the heap so major collections triggered by one cell do not
     bleed into the next *)
  Gc.major ();
  let test = Test.make ~name (Staged.stage f) in
  let quota = if !full then 0.5 else 0.2 in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ clock ] test in
  let results = Analyze.all ols clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ est ] -> (
      match Analyze.OLS.estimates est with
      | Some [ ns ] when ns > 0. -> ns
      | _ -> nan)
  | _ -> nan

(* the minimum of two samples: robust against one-off scheduler noise *)
let measure_ns name f = Float.min (measure_ns name f) (measure_ns name f)

let mbps bytes ns = float_of_int bytes /. ns *. 1e9 /. 1e6
(* MB/s with 1e6 bytes per MB, matching the paper's axes *)

(* ------------------------------------------------------------------ *)
(* The competing stub generators (paper Table 3)                        *)
(* ------------------------------------------------------------------ *)

type engine = {
  e_name : string;
  e_origin : string;
  e_idl : string;
  e_encoding : Encoding.t;
  e_style : [ `Corba | `Rpcgen ];
  e_make_encoder :
    enc:Encoding.t ->
    mint:Mint.t ->
    named:(string * (Mint.idx * Pres.t)) list ->
    Plan_compile.root list ->
    Stub_opt.encoder;
  e_make_decoder :
    enc:Encoding.t ->
    mint:Mint.t ->
    named:(string * (Mint.idx * Pres.t)) list ->
    Stub_opt.droot list ->
    Stub_opt.decoder;
}

let naive_encoder ~enc ~mint ~named roots =
  Stub_naive.compile_encoder ~config:Stub_naive.default_config ~enc ~mint
    ~named roots

let naive_decoder ~enc ~mint ~named droots =
  Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc ~mint
    ~named droots

let flick_encoder ~enc ~mint ~named roots =
  Stub_opt.compile_encoder ~enc ~mint ~named roots

let flick_decoder ~enc ~mint ~named droots =
  Stub_opt.compile_decoder ~enc ~mint ~named droots

(* One line and one JSON object per cache, shared by the planopt and
   decplan warm-cache reports so encode and decode caches read the same
   way: hit rate AND eviction pressure for both sides. *)
let cache_report_line name (st : Plan_cache.stats) =
  Printf.printf
    "  %-18s %5d hits %5d misses %5d entries %4d evicted %3d resets  %5.1f%%\n"
    name st.Plan_cache.hits st.Plan_cache.misses st.Plan_cache.entries
    st.Plan_cache.evictions st.Plan_cache.resets
    (100. *. Plan_cache.hit_rate st)

let cache_json name (st : Plan_cache.stats) =
  Printf.sprintf
    "{ \"name\": %S, \"hits\": %d, \"misses\": %d, \"entries\": %d, \
     \"evictions\": %d, \"resets\": %d, \"hit_rate\": %.3f }"
    name st.Plan_cache.hits st.Plan_cache.misses st.Plan_cache.entries
    st.Plan_cache.evictions st.Plan_cache.resets
    (Plan_cache.hit_rate st)

let engines =
  [
    {
      e_name = "rpcgen";
      e_origin = "Sun";
      e_idl = "ONC";
      e_encoding = Encoding.xdr;
      e_style = `Rpcgen;
      e_make_encoder = naive_encoder;
      e_make_decoder = naive_decoder;
    };
    {
      e_name = "PowerRPC";
      e_origin = "Netbula";
      e_idl = "CORBA-like";
      e_encoding = Encoding.xdr;
      e_style = `Rpcgen;
      e_make_encoder = naive_encoder;
      e_make_decoder = naive_decoder;
    };
    {
      e_name = "Flick/ONC";
      e_origin = "Utah";
      e_idl = "ONC";
      e_encoding = Encoding.xdr;
      e_style = `Rpcgen;
      e_make_encoder = flick_encoder;
      e_make_decoder = flick_decoder;
    };
    {
      e_name = "ORBeline";
      e_origin = "Visigenic";
      e_idl = "CORBA";
      e_encoding = Encoding.cdr;
      e_style = `Corba;
      e_make_encoder = Stub_interp.compile_encoder;
      e_make_decoder = Stub_interp.compile_decoder;
    };
    {
      e_name = "ILU";
      e_origin = "Xerox PARC";
      e_idl = "CORBA";
      e_encoding = Encoding.cdr;
      e_style = `Corba;
      e_make_encoder = Stub_interp.compile_encoder;
      e_make_decoder = Stub_interp.compile_decoder;
    };
    {
      e_name = "Flick/CORBA";
      e_origin = "Utah";
      e_idl = "CORBA";
      e_encoding = Encoding.cdr;
      e_style = `Corba;
      e_make_encoder = flick_encoder;
      e_make_decoder = flick_decoder;
    };
  ]

let presc_of = function
  | `Corba -> Paper_fixtures.bench_presc `Corba
  | `Rpcgen -> Paper_fixtures.bench_presc `Rpcgen

(* marshal throughput of one engine on one payload at one size *)
let marshal_cell e payload bytes =
  let pc = presc_of e.e_style in
  let op = Paper_fixtures.op_of_payload payload in
  let spec = Paper_fixtures.request_spec pc ~op in
  let encode =
    e.e_make_encoder ~enc:e.e_encoding ~mint:spec.Paper_fixtures.ms_mint
      ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
  in
  let value = Paper_fixtures.payload payload ~bytes in
  let params = [| value |] in
  let buf = Mbuf.create (bytes + 4096) in
  encode buf params;
  let wire = Mbuf.pos buf in
  let ns =
    measure_ns
      (Printf.sprintf "%s/%s/%d" e.e_name
         (Paper_fixtures.op_of_payload payload)
         bytes)
      (fun () ->
        Mbuf.reset buf;
        encode buf params)
  in
  (wire, ns)

let unmarshal_ns e payload bytes =
  let pc = presc_of e.e_style in
  let op = Paper_fixtures.op_of_payload payload in
  let spec = Paper_fixtures.request_spec pc ~op in
  let encode =
    Stub_opt.compile_encoder ~enc:e.e_encoding ~mint:spec.Paper_fixtures.ms_mint
      ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
  in
  let decode =
    e.e_make_decoder ~enc:e.e_encoding ~mint:spec.Paper_fixtures.ms_mint
      ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_droots
  in
  let value = Paper_fixtures.payload payload ~bytes in
  let buf = Mbuf.create (bytes + 4096) in
  encode buf [| value |];
  (* read straight over the writer's segments: no whole-message copy *)
  measure_ns "unmarshal" (fun () -> ignore (decode (Mbuf.reader buf)))

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline "============================================================";
  print_endline " Table 1 - code reuse within the compiler";
  print_endline "============================================================";
  print_string (Reuse.render (Reuse.table1 ()));
  print_newline ()

let table2 () =
  print_endline "============================================================";
  print_endline " Table 2 - object code sizes (directory interface)";
  print_endline "============================================================";
  print_endline
    "gcc -O2 -c sizes of the stubs our back ends generate for the paper's\n\
     directory interface.  The other compilers' rows are not reproducible\n\
     (no 1997 binaries); the paper's point - that fully inlined optimized\n\
     stubs stay compact and need almost no marshaling library - is checked\n\
     against the runtime's size.";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flick-table2-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Runtime.write_to dir;
  Printf.printf "%-28s %10s %10s %10s\n" "configuration" "client .o" "server .o"
    "gen. src";
  let backends =
    [
      ("Flick CORBA/IIOP", `Corba, Be_iiop.generate);
      ("Flick CORBA/Mach3", `Corba, Be_mach.generate);
      ("Flick rpcgen/ONC-XDR", `Rpcgen, Be_xdr.generate);
      ("Flick rpcgen/Fluke", `Rpcgen, Be_fluke.generate);
    ]
  in
  List.iter
    (fun (name, style, gen) ->
      let pc = Paper_fixtures.dir_presc style in
      let files = gen pc in
      List.iter
        (fun (fname, contents) ->
          let oc = open_out (Filename.concat dir fname) in
          output_string oc contents;
          close_out oc)
        files;
      let src_bytes =
        List.fold_left (fun acc (_, c) -> acc + String.length c) 0 files
      in
      let osize fname =
        let rc =
          Sys.command
            (Printf.sprintf "cd %s && gcc -std=c99 -O2 -c %s -o %s.o 2>/dev/null"
               (Filename.quote dir) fname fname)
        in
        if rc <> 0 then -1
        else (Unix.stat (Filename.concat dir (fname ^ ".o"))).Unix.st_size
      in
      let client =
        List.find_map
          (fun (f, _) ->
            if Filename.check_suffix f "_client.c" then Some (osize f) else None)
          files
        |> Option.value ~default:(-1)
      in
      let server =
        List.find_map
          (fun (f, _) ->
            if Filename.check_suffix f "_server.c" then Some (osize f) else None)
          files
        |> Option.value ~default:(-1)
      in
      Printf.printf "%-28s %9dB %9dB %9dB\n" name client server src_bytes)
    backends;
  (* the "library code" column: a translation unit that uses the runtime *)
  let lib_c = Filename.concat dir "lib_probe.c" in
  let oc = open_out lib_c in
  output_string oc
    "#include \"flick_runtime.h\"\nvoid *probe[] = { (void*)flick_put_str, \
     (void*)flick_get_key, (void*)flick_invoke, (void*)flick_salloc };\n";
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf
         "cd %s && gcc -std=c99 -O2 -c lib_probe.c -o lib.o 2>/dev/null"
         (Filename.quote dir))
  in
  if rc = 0 then
    Printf.printf "%-28s %9dB  (whole marshal/transport runtime)\n"
      "runtime library"
      (Unix.stat (Filename.concat dir "lib.o")).Unix.st_size;
  print_newline ()

let table3 () =
  print_endline "============================================================";
  print_endline " Table 3 - tested IDL compilers and their attributes";
  print_endline "============================================================";
  Printf.printf "%-12s %-12s %-11s %-9s %-30s\n" "Compiler" "Origin" "IDL"
    "Encoding" "Engine standing in";
  List.iter
    (fun e ->
      let standin =
        if e.e_make_encoder == flick_encoder then
          "optimized plans (this compiler)"
        else if e.e_make_encoder == naive_encoder then "call-per-datum stubs"
        else "runtime type interpretation"
      in
      Printf.printf "%-12s %-12s %-11s %-9s %-30s\n" e.e_name e.e_origin
        e.e_idl e.e_encoding.Encoding.name standin)
    engines;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 3 - marshal throughput                                        *)
(* ------------------------------------------------------------------ *)

let fig3_sizes payload =
  match payload with
  | `Ints | `Rects ->
      if !full then [ 64; 1024; 16384; 262144; 4194304 ]
      else [ 64; 1024; 16384; 262144; 1048576 ]
  | `Dirents -> [ 256; 4096; 65536; 524288 ]

let fig3 () =
  print_endline "============================================================";
  print_endline " Figure 3 - marshal throughput (MB/s), by compiler";
  print_endline "============================================================";
  List.iter
    (fun payload ->
      let title =
        match payload with
        | `Ints -> "arrays of integers"
        | `Rects -> "arrays of rectangles (4 ints each)"
        | `Dirents -> "arrays of directory entries (~256B each)"
      in
      Printf.printf "\n-- %s --\n" title;
      let sizes = fig3_sizes payload in
      Printf.printf "%-12s" "compiler";
      List.iter (fun s -> Printf.printf "%11s" (Printf.sprintf "%dB" s)) sizes;
      print_newline ();
      let rows =
        List.map
          (fun e ->
            let cells =
              List.map
                (fun bytes ->
                  let wire, ns = marshal_cell e payload bytes in
                  mbps wire ns)
                sizes
            in
            (e, cells))
          engines
      in
      List.iter
        (fun (e, cells) ->
          Printf.printf "%-12s" e.e_name;
          List.iter (fun v -> Printf.printf "%11.1f" v) cells;
          print_newline ())
        rows;
      (* the paper's headline: Flick vs the best traditional stub *)
      let flick =
        List.assoc "Flick/ONC" (List.map (fun (e, c) -> (e.e_name, c)) rows)
      in
      let best_other =
        List.fold_left
          (fun acc (e, cells) ->
            if String.length e.e_name >= 5 && String.sub e.e_name 0 5 = "Flick"
            then acc
            else List.map2 Float.max acc cells)
          (List.map (fun _ -> 0.) sizes)
          rows
      in
      Printf.printf "%-12s" "Flick/best";
      List.iter2 (fun f o -> Printf.printf "%10.1fx" (f /. o)) flick best_other;
      print_newline ())
    [ `Ints; `Rects; `Dirents ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 4-6 - end-to-end throughput over simulated networks          *)
(* ------------------------------------------------------------------ *)

(* The calibration factor mapping our engine speeds onto the paper's
   1997 hardware: Flick's large-array marshal rate was memory-bound at
   roughly 30 MB/s on the SPARC testbed. *)
let time_scale =
  lazy
    (let flick = List.find (fun e -> e.e_name = "Flick/ONC") engines in
     let wire, ns = marshal_cell flick `Ints 1048576 in
     let our_bw = float_of_int wire /. (ns /. 1e9) in
     our_bw /. 30e6)

let end_to_end net_name net () =
  Printf.printf "\n-- integer arrays over %s (Mbit/s end-to-end) --\n" net_name;
  let sizes =
    if !full then [ 1024; 16384; 131072; 1048576; 4194304 ]
    else [ 1024; 16384; 131072; 1048576 ]
  in
  let scale = Lazy.force time_scale in
  let onc_engines =
    List.filter
      (fun e ->
        e.e_name = "rpcgen" || e.e_name = "PowerRPC" || e.e_name = "Flick/ONC")
      engines
  in
  Printf.printf "%-12s" "compiler";
  List.iter (fun s -> Printf.printf "%11s" (Printf.sprintf "%dB" s)) sizes;
  print_newline ();
  let results =
    List.map
      (fun e ->
        let cells =
          List.map
            (fun bytes ->
              let wire, mns = marshal_cell e `Ints bytes in
              let uns = unmarshal_ns e `Ints bytes in
              let m_t = mns /. 1e9 *. scale and u_t = uns /. 1e9 *. scale in
              let cost =
                {
                  Rpc_sim.sc_name = e.e_name;
                  sc_marshal =
                    (fun b ->
                      if b >= bytes then m_t
                      else m_t *. float_of_int b /. float_of_int bytes);
                  sc_unmarshal =
                    (fun b ->
                      if b >= bytes then u_t
                      else u_t *. float_of_int b /. float_of_int bytes);
                  sc_per_call = 100e-6;
                }
              in
              Rpc_sim.round_trip_throughput ~net ~cost ~msg_bytes:wire ())
            sizes
        in
        (e.e_name, cells))
      onc_engines
  in
  List.iter
    (fun (name, cells) ->
      Printf.printf "%-12s" name;
      List.iter (fun v -> Printf.printf "%11.2f" v) cells;
      print_newline ())
    results;
  let flick = List.assoc "Flick/ONC" results in
  let rpcgen = List.assoc "rpcgen" results in
  Printf.printf "%-12s" "Flick/rpcgen";
  List.iter2 (fun f r -> Printf.printf "%10.2fx" (f /. r)) flick rpcgen;
  print_newline ()

let fig4 () =
  print_endline "============================================================";
  print_endline " Figure 4 - end-to-end across 10Mbps Ethernet (eff. 7.5)";
  print_endline "============================================================";
  end_to_end "10Mbps Ethernet" (fun ~sim -> Link.ethernet_10 ~sim) ()

let fig5 () =
  print_endline "============================================================";
  print_endline " Figure 5 - end-to-end across 100Mbps Ethernet (eff. 70)";
  print_endline "============================================================";
  end_to_end "100Mbps Ethernet" (fun ~sim -> Link.ethernet_100 ~sim) ()

let fig6 () =
  print_endline "============================================================";
  print_endline " Figure 6 - end-to-end across 640Mbps Myrinet (eff. 84.5)";
  print_endline "============================================================";
  end_to_end "640Mbps Myrinet" (fun ~sim -> Link.myrinet_640 ~sim) ()

(* ------------------------------------------------------------------ *)
(* Figure 7 - MIG vs Flick over Mach IPC                                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print_endline "============================================================";
  print_endline " Figure 7 - MIG vs Flick stubs over Mach IPC";
  print_endline "============================================================";
  (* per-byte costs from the mach3 encodings: Flick = optimized plans,
     MIG = the per-datum typed-message shape; scaled to the 1997 host *)
  let scale = Lazy.force time_scale in
  let mach e payload bytes =
    let e = { e with e_encoding = Encoding.mach3 } in
    let wire, mns = marshal_cell e payload bytes in
    let uns = unmarshal_ns e payload bytes in
    scale *. (mns +. uns) /. 1e9 /. float_of_int wire
  in
  let flick = List.find (fun e -> e.e_name = "Flick/ONC") engines in
  let rpc = List.find (fun e -> e.e_name = "rpcgen") engines in
  let flick_per_byte = mach flick `Ints 262144 in
  let mig_per_byte = mach rpc `Ints 262144 in
  let model = Mach_model.calibrate ~flick_per_byte ~mig_per_byte in
  Printf.printf
    "calibrated model: MIG %.2fus + %.2fns/B, Flick %.2fus + %.2fns/B\n"
    (model.Mach_model.mig_fixed *. 1e6)
    (model.Mach_model.mig_per_byte *. 1e9)
    (model.Mach_model.flick_fixed *. 1e6)
    (model.Mach_model.flick_per_byte *. 1e9);
  Printf.printf "%-10s %12s %12s %10s\n" "size" "MIG Mbit/s" "Flick Mbit/s"
    "Flick/MIG";
  List.iter
    (fun bytes ->
      let m = Mach_model.throughput model `Mig ~bytes in
      let f = Mach_model.throughput model `Flick ~bytes in
      Printf.printf "%-10d %12.2f %12.2f %9.2fx\n" bytes m f (f /. m))
    [ 64; 256; 1024; 4096; 8192; 16384; 65536 ];
  Printf.printf "crossover at %.0f bytes (paper: 8K)\n\n"
    (Mach_model.crossover model)

(* ------------------------------------------------------------------ *)
(* Ablations - the section 3 optimization claims                        *)
(* ------------------------------------------------------------------ *)

let ablations () =
  print_endline "============================================================";
  print_endline " Ablations - section 3 optimizations in isolation";
  print_endline "============================================================";
  let pc = presc_of `Rpcgen in
  let enc = Encoding.xdr in
  let spec op = Paper_fixtures.request_spec pc ~op in
  let time_encoder encoder value bytes =
    let buf = Mbuf.create (bytes + 4096) in
    encoder buf [| value |];
    let wire = Mbuf.pos buf in
    let ns =
      measure_ns "abl" (fun () ->
          Mbuf.reset buf;
          encoder buf [| value |])
    in
    (wire, ns)
  in
  let pct base v = 100. *. (base -. v) /. base in

  (* A1/A4: chunking and single buffer checks (sections 3.1, 3.2) *)
  let s = spec "send_dirents" in
  let value = Paper_fixtures.payload `Dirents ~bytes:65536 in
  let chunked_plan =
    Plan_compile.compile ~enc ~mint:s.Paper_fixtures.ms_mint
      ~named:s.Paper_fixtures.ms_named s.Paper_fixtures.ms_roots
  in
  let unchunked_plan =
    Plan_compile.compile ~enc ~mint:s.Paper_fixtures.ms_mint
      ~named:s.Paper_fixtures.ms_named ~chunked:false s.Paper_fixtures.ms_roots
  in
  let _, ns_chunked =
    time_encoder (Stub_opt.encoder_of_plan ~enc chunked_plan) value 65536
  in
  let _, ns_unchunked =
    time_encoder (Stub_opt.encoder_of_plan ~enc unchunked_plan) value 65536
  in
  Printf.printf
    "A1/A4 chunked buffer management (64KB directory entries):\n\
    \  per-datum checks %.2fus -> chunked %.2fus  (%.1f%% faster; paper: \
     ~12%%+14%%)\n"
    (ns_unchunked /. 1e3) (ns_chunked /. 1e3)
    (pct ns_unchunked ns_chunked);

  (* A3: memcpy for character data (section 3.2) *)
  let per_char =
    Stub_naive.compile_encoder
      ~config:{ Stub_naive.per_char_strings = true; per_elem_arrays = true }
      ~enc ~mint:s.Paper_fixtures.ms_mint ~named:s.Paper_fixtures.ms_named
      s.Paper_fixtures.ms_roots
  in
  let blit =
    Stub_naive.compile_encoder
      ~config:{ Stub_naive.per_char_strings = false; per_elem_arrays = true }
      ~enc ~mint:s.Paper_fixtures.ms_mint ~named:s.Paper_fixtures.ms_named
      s.Paper_fixtures.ms_roots
  in
  let _, ns_char = time_encoder per_char value 65536 in
  let _, ns_blit = time_encoder blit value 65536 in
  Printf.printf
    "A3 string memcpy (64KB of directory entries, name-heavy):\n\
    \  char-by-char %.2fus -> memcpy %.2fus  (%.1f%% faster on string \
     processing; paper: 60-70%%)\n"
    (ns_char /. 1e3) (ns_blit /. 1e3) (pct ns_char ns_blit);

  (* A5: inlining vs call/interpretation per type (section 3.3) *)
  let si = spec "send_rects" in
  let rects = Paper_fixtures.payload `Rects ~bytes:65536 in
  let inlined =
    Stub_opt.compile_encoder ~enc ~mint:si.Paper_fixtures.ms_mint
      ~named:si.Paper_fixtures.ms_named si.Paper_fixtures.ms_roots
  in
  let interp =
    Stub_interp.compile_encoder ~enc ~mint:si.Paper_fixtures.ms_mint
      ~named:si.Paper_fixtures.ms_named si.Paper_fixtures.ms_roots
  in
  let _, ns_inl = time_encoder inlined rects 65536 in
  let _, ns_int = time_encoder interp rects 65536 in
  Printf.printf
    "A5 inlined marshal code vs per-type interpretation (64KB rectangles):\n\
    \  interpreted %.2fus -> inlined %.2fus  (%.1f%% faster; paper: up to \
     60%%)\n"
    (ns_int /. 1e3) (ns_inl /. 1e3) (pct ns_int ns_inl);

  (* A2: parameter management on the unmarshal path (section 3.1) *)
  let small = Paper_fixtures.payload `Dirents ~bytes:1024 in
  let enc_small =
    Stub_opt.compile_encoder ~enc ~mint:s.Paper_fixtures.ms_mint
      ~named:s.Paper_fixtures.ms_named s.Paper_fixtures.ms_roots
  in
  let buf = Mbuf.create 8192 in
  enc_small buf [| small |];
  let dec_opt =
    Stub_opt.compile_decoder ~enc ~mint:s.Paper_fixtures.ms_mint
      ~named:s.Paper_fixtures.ms_named s.Paper_fixtures.ms_droots
  in
  let dec_naive =
    naive_decoder ~enc ~mint:s.Paper_fixtures.ms_mint
      ~named:s.Paper_fixtures.ms_named s.Paper_fixtures.ms_droots
  in
  let ns_dopt =
    measure_ns "dec-opt" (fun () -> ignore (dec_opt (Mbuf.reader buf)))
  in
  let ns_dnaive =
    measure_ns "dec-naive" (fun () -> ignore (dec_naive (Mbuf.reader buf)))
  in
  Printf.printf
    "A2 unmarshal parameter management (1KB directory entries):\n\
    \  per-datum decode %.2fus -> compiled decode %.2fus  (%.1f%% faster; \
     paper: ~14%% from stack allocation)\n"
    (ns_dnaive /. 1e3) (ns_dopt /. 1e3) (pct ns_dnaive ns_dopt);

  (* A6: word-chunked demultiplexing (section 3.3) *)
  let mint = Mint.create () in
  let body = Mint.struct_ mint [ ("x", Mint.int32 mint) ] in
  let n_ops = 26 in
  let op_names =
    List.init n_ops (fun i -> Printf.sprintf "operation_%c" (Char.chr (97 + i)))
  in
  let cases =
    List.map
      (fun name -> { Mint.c_const = Mint.Cstring name; c_body = body })
      op_names
  in
  let req =
    Mint.union mint ~discrim:(Mint.string_ mint ~max_len:None) ~cases
      ~default:None
  in
  let arms =
    List.map (fun name -> (name, Pres.Struct [ ("x", Pres.Direct) ])) op_names
  in
  let req_pres =
    Pres.Union
      { discrim_field = "_op"; union_field = "_u"; arms; default_arm = None }
  in
  let droots = [ Stub_opt.Dvalue (req, req_pres) ] in
  let dec_switch =
    Stub_opt.compile_decoder ~enc:Encoding.cdr ~mint ~named:[] droots
  in
  let dec_linear = naive_decoder ~enc:Encoding.cdr ~mint ~named:[] droots in
  (* requests hitting the last operation: worst case for linear compare *)
  let encode =
    Stub_opt.compile_encoder ~enc:Encoding.cdr ~mint ~named:[]
      [
        Plan_compile.Rvalue
          (Mplan.Rparam { index = 0; name = "r"; deref = false }, req, req_pres);
      ]
  in
  let value =
    Value.Vunion
      {
        case = n_ops - 1;
        discrim = Mint.Cstring (List.nth op_names (n_ops - 1));
        payload = Value.Vstruct [| Value.Vint 7 |];
      }
  in
  let b = Mbuf.create 64 in
  encode b [| value |];
  let ns_sw =
    measure_ns "demux-switch" (fun () -> ignore (dec_switch (Mbuf.reader b)))
  in
  let ns_lin =
    measure_ns "demux-linear" (fun () -> ignore (dec_linear (Mbuf.reader b)))
  in
  Printf.printf
    "A6 demultiplexing a 26-operation interface (string keys, worst case):\n\
    \  linear compares %.0fns -> indexed dispatch %.0fns  (%.1f%% faster)\n\n"
    ns_lin ns_sw (pct ns_lin ns_sw)

(* ------------------------------------------------------------------ *)
(* planopt - the peephole pass and the compiled-plan cache              *)
(* ------------------------------------------------------------------ *)

(* Reports, and records in BENCH_1.json:
   - plan node counts before/after the optimizer pipeline, per workload,
     encoding, and compilation mode (the per-datum mode is where the
     passes recover the chunking the compiler was told to skip), plus a
     per-pass trace of the showcase workload;
   - encode throughput for the directory workload under three pipeline
     configurations (none / full pipeline / production chunked+cached);
   - cache hit rates and eviction pressure on a repeated
     stub-compilation workload.
   Every plan this artifact executes is checked by the structural plan
   verifier; a dirty plan fails the run.
   [--smoke] shrinks the payload so CI can run it in a few seconds. *)

let planopt_failed = ref false

let planopt () =
  print_endline "============================================================";
  print_endline " planopt - optimizer pass pipeline and compiled-plan cache";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      planopt_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let verified (p : Plan_compile.plan) =
    match Plan_verify.check_plan p with
    | Ok () -> true
    | Error e ->
        Printf.printf "  verifier: %s\n" (Plan_verify.error_to_string e);
        false
  in
  let plan_nodes (p : Plan_compile.plan) =
    Mplan.count_ops p.Plan_compile.p_ops
    + List.fold_left
        (fun acc (_, ops) -> acc + Mplan.count_ops ops)
        0 p.Plan_compile.p_subs
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json
    (Printf.sprintf "{\n  \"artifact\": \"planopt\",\n  \"smoke\": %b"
       !smoke);

  (* -- plan node counts -------------------------------------------- *)
  Printf.printf "\n%-6s %-13s %-10s %8s %8s %9s\n" "enc" "operation" "mode"
    "before" "after" "rewrites";
  Buffer.add_string json ",\n  \"node_counts\": [";
  let first = ref true in
  let dirents_reduced = ref false in
  (* per-pass trace of the showcase workload (xdr directory entries,
     per-datum mode: the passes re-chunk what the compiler skipped) *)
  let showcase_trace : Pass.trace list ref = ref [] in
  List.iter
    (fun (ename, enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun op ->
          let spec = Paper_fixtures.request_spec pc ~op in
          List.iter
            (fun (mode, chunked) ->
              let raw =
                Plan_compile.compile ~enc ~mint:spec.Paper_fixtures.ms_mint
                  ~named:spec.Paper_fixtures.ms_named ~chunked
                  spec.Paper_fixtures.ms_roots
              in
              let st = Peephole.fresh_stats () in
              let showcase =
                ename = "xdr" && op = "send_dirents" && mode = "per-datum"
              in
              let opt =
                Pass.run_encode ~config:Opt_config.all ~stats:st
                  ~on_trace:(fun tr ->
                    if showcase then showcase_trace := !showcase_trace @ [ tr ])
                  raw
              in
              check
                (Printf.sprintf "%s/%s/%s: verifier clean after pipeline"
                   ename op mode)
                (verified opt);
              let before = plan_nodes raw and after = plan_nodes opt in
              if op = "send_dirents" && after < before then
                dirents_reduced := true;
              Printf.printf "%-6s %-13s %-10s %8d %8d %9d\n" ename op mode
                before after (Peephole.rewrites st);
              Buffer.add_string json
                (Printf.sprintf
                   "%s\n    { \"encoding\": %S, \"op\": %S, \"mode\": %S, \
                    \"nodes_before\": %d, \"nodes_after\": %d, \
                    \"chunks_merged\": %d, \"loops_fused\": %d, \
                    \"ensures_hoisted\": %d, \"aligns_removed\": %d, \
                    \"dead_removed\": %d }"
                   (if !first then "" else ",")
                   ename op mode before after st.Peephole.chunks_merged
                   st.Peephole.loops_fused st.Peephole.ensures_hoisted
                   st.Peephole.aligns_removed st.Peephole.dead_removed);
              first := false)
            [ ("chunked", true); ("per-datum", false) ])
        [ "send_ints"; "send_rects"; "send_dirents" ])
    [ ("xdr", Encoding.xdr, `Rpcgen); ("cdr", Encoding.cdr, `Corba) ];
  Buffer.add_string json "\n  ]";
  if not !dirents_reduced then
    print_endline "WARNING: no node reduction on the directory workload";

  Printf.printf
    "\npass trace, directory entries (XDR, per-datum compilation):\n";
  List.iter
    (fun (tr : Pass.trace) ->
      Printf.printf "  %-18s nodes %4d -> %4d   checks %4d -> %4d   %7.1fus\n"
        tr.Pass.tr_pass tr.Pass.tr_nodes_before tr.Pass.tr_nodes_after
        tr.Pass.tr_checks_before tr.Pass.tr_checks_after
        (tr.Pass.tr_wall_ns /. 1e3))
    !showcase_trace;
  check "showcase trace covers every encode pass"
    (List.map (fun (tr : Pass.trace) -> tr.Pass.tr_pass) !showcase_trace
    = Pass.encode_pass_names);
  Buffer.add_string json
    (Printf.sprintf ",\n  \"passes\": [%s]"
       (String.concat ", "
          (List.map
             (fun (tr : Pass.trace) ->
               Printf.sprintf
                 "{ \"pass\": %S, \"nodes_before\": %d, \"nodes_after\": %d, \
                  \"checks_before\": %d, \"checks_after\": %d }"
                 tr.Pass.tr_pass tr.Pass.tr_nodes_before tr.Pass.tr_nodes_after
                 tr.Pass.tr_checks_before tr.Pass.tr_checks_after)
             !showcase_trace)));

  (* -- encode throughput on the directory workload ------------------ *)
  (* Three pipeline configurations through the one production entry
     point (Plan_cache.plan): the config is part of the cache key, so
     these coexist as separate cached plans rather than hand-tweaked
     variants. *)
  let bytes = if !smoke then 4096 else 65536 in
  let enc = Encoding.xdr in
  let pc = Paper_fixtures.bench_presc `Rpcgen in
  let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
  let value = Paper_fixtures.payload `Dirents ~bytes in
  let compile ~chunked config =
    Plan_cache.plan ~enc ~mint:spec.Paper_fixtures.ms_mint
      ~named:spec.Paper_fixtures.ms_named ~chunked ~config
      spec.Paper_fixtures.ms_roots
  in
  let rate name plan =
    check
      (Printf.sprintf "throughput plan verifier clean (%s)" name)
      (verified plan);
    let encode = Stub_opt.encoder_of_plan ~enc plan in
    let buf = Mbuf.create (bytes + 4096) in
    encode buf [| value |];
    let wire = Mbuf.pos buf in
    let ns =
      measure_ns name (fun () ->
          Mbuf.reset buf;
          encode buf [| value |])
    in
    let v = mbps wire ns in
    if Float.is_nan v then 0. else v
  in
  let mb_raw = rate "per-datum" (compile ~chunked:false Opt_config.none) in
  let mb_peep =
    rate "per-datum+pipeline" (compile ~chunked:false Opt_config.all)
  in
  let mb_chunked = rate "chunked" (compile ~chunked:true Opt_config.all) in
  Printf.printf
    "\nencode throughput, directory entries (%dB, XDR):\n\
    \  per-datum, passes off   %8.1f MB/s\n\
    \  per-datum + pipeline    %8.1f MB/s\n\
    \  chunked (production)    %8.1f MB/s\n"
    bytes mb_raw mb_peep mb_chunked;
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"throughput_mbps\": { \"workload\": \"dirents-xdr\", \
        \"bytes\": %d, \"per_datum_raw\": %.1f, \"per_datum_peephole\": \
        %.1f, \"chunked_cached\": %.1f }"
       bytes mb_raw mb_peep mb_chunked);

  (* -- cache hit rate on a repeated compilation workload ------------ *)
  Plan_cache.reset_all ();
  let rounds = 20 in
  for _round = 1 to rounds do
    List.iter
      (fun op ->
        List.iter
          (fun (_, enc, style) ->
            let pc = Paper_fixtures.bench_presc style in
            let spec = Paper_fixtures.request_spec pc ~op in
            ignore
              (Stub_opt.compile_encoder ~enc
                 ~mint:spec.Paper_fixtures.ms_mint
                 ~named:spec.Paper_fixtures.ms_named
                 spec.Paper_fixtures.ms_roots
                : Stub_opt.encoder);
            ignore
              (Stub_opt.compile_decoder ~enc
                 ~mint:spec.Paper_fixtures.ms_mint
                 ~named:spec.Paper_fixtures.ms_named
                 spec.Paper_fixtures.ms_droots
                : Stub_opt.decoder))
          [ ("xdr", Encoding.xdr, `Rpcgen); ("cdr", Encoding.cdr, `Corba) ])
      [ "send_ints"; "send_rects"; "send_dirents" ]
  done;
  let per_cache = Plan_cache.all_stats () in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, st) -> (h + st.Plan_cache.hits, m + st.Plan_cache.misses))
      (0, 0) per_cache
  in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf
    "\ncompiled-plan caches over %d rounds x 12 stub compilations:\n" rounds;
  List.iter (fun (name, st) -> cache_report_line name st) per_cache;
  Printf.printf "  %-18s %.1f%% hit rate\n" "overall" (100. *. hit_rate);
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"cache\": { \"rounds\": %d, \"hits\": %d, \"misses\": %d, \
        \"hit_rate\": %.3f, \"per_cache\": [%s] }"
       rounds hits misses hit_rate
       (String.concat ", "
          (List.map (fun (name, st) -> cache_json name st) per_cache)));
  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !planopt_failed);
  let oc = open_out "BENCH_1.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !planopt_failed then
    print_endline "\nplanopt: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline "\nall pipeline, verifier, and cache self-checks passed";
  print_endline "wrote BENCH_1.json\n"

(* ------------------------------------------------------------------ *)
(* sgwire - zero-copy scatter-gather marshal buffers                    *)
(* ------------------------------------------------------------------ *)

(* Reports, and records in BENCH_2.json:
   - copy accounting per workload and size: payload bytes memcpy'd vs
     spliced by reference, seal and segment counts, for the
     scatter-gather path against the PR 1 contiguous baseline;
   - encode throughput both ways for 4KB..4MB string and byte-sequence
     payloads, plus the small messages that must not regress;
   - engine self-checks: the flattened SG message must be
     byte-identical to the contiguous baseline and to the naive and
     interpretive engines; decoding straight over the segment list must
     round-trip; handing the message to the simulated link must never
     flatten it.  Any failure makes the whole run exit non-zero.
   [--smoke] shrinks the size sweep so CI can run it in a few seconds. *)

let sgwire_failed = ref false

let sgwire () =
  print_endline "============================================================";
  print_endline " sgwire - zero-copy scatter-gather marshal buffers";
  print_endline "============================================================";
  let enc = Encoding.xdr in
  let check what ok =
    if not ok then begin
      sgwire_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let with_sg on f =
    let old = Mbuf.sg_enabled () in
    Mbuf.set_sg_enabled on;
    Fun.protect ~finally:(fun () -> Mbuf.set_sg_enabled old) f
  in
  (* The large payloads: a string and a counted byte sequence — the two
     blit-shaped data the engines can borrow by reference. *)
  let mint = Mint.create () in
  let str_t = Mint.string_ mint ~max_len:None in
  let seq_t =
    Mint.array mint ~elem:(Mint.char8 mint) ~min_len:0 ~max_len:None
  in
  let seq_pres =
    Pres.Counted_seq { len_field = "len"; buf_field = "buf"; elem = Pres.Direct }
  in
  let root t pres =
    [
      Plan_compile.Rvalue
        (Mplan.Rparam { index = 0; name = "p"; deref = false }, t, pres);
    ]
  in
  let sizes =
    if !smoke then [ 4096; 65536 ] else [ 4096; 65536; 1048576; 4194304 ]
  in
  let big_cases =
    List.concat_map
      (fun bytes ->
        [
          ( "string", mint, [], root str_t Pres.Terminated_string,
            [ Stub_opt.Dvalue (str_t, Pres.Terminated_string) ],
            Value.Vstring (String.init bytes (fun i -> Char.chr (97 + (i mod 23)))),
            bytes );
          ( "byteseq", mint, [], root seq_t seq_pres,
            [ Stub_opt.Dvalue (seq_t, seq_pres) ],
            Value.Vbytes (Bytes.init bytes (fun i -> Char.chr (i land 0xff))),
            bytes );
        ])
      sizes
  in
  (* the small-message paths that must not regress: real request specs
     whose payloads sit under the borrow threshold *)
  let small_cases =
    List.map
      (fun (payload, bytes) ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let op = Paper_fixtures.op_of_payload payload in
        let s = Paper_fixtures.request_spec pc ~op in
        ( op, s.Paper_fixtures.ms_mint, s.Paper_fixtures.ms_named,
          s.Paper_fixtures.ms_roots, s.Paper_fixtures.ms_droots,
          Paper_fixtures.payload payload ~bytes, bytes ))
      [ (`Ints, 64); (`Dirents, 256) ]
  in
  let json = Buffer.create 2048 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"sgwire\",\n  \"smoke\": %b,\n  \
        \"borrow_threshold\": %d,\n  \"encoding\": \"xdr\",\n  \"cases\": ["
       !smoke (Mbuf.borrow_threshold ()));
  let first = ref true in
  Printf.printf "\n%-12s %9s %9s %-11s %10s %10s %5s %9s\n" "workload" "bytes"
    "wire" "mode" "copied" "borrowed" "segs" "MB/s";
  List.iter
    (fun (name, cmint, named, roots, droots, value, bytes) ->
      let compile on =
        with_sg on (fun () ->
            Stub_opt.compile_encoder ~enc ~mint:cmint ~named roots)
      in
      let enc_sg = compile true and enc_ct = compile false in
      (* the plans behind those encoders, re-fetched from the shared
         cache (same keys, so no extra compilation): the structural
         verifier must be clean on everything this artifact executes *)
      let plan_verified on =
        with_sg on (fun () ->
            match
              Plan_verify.check_plan
                (Plan_cache.plan ~enc ~mint:cmint ~named roots)
            with
            | Ok () -> true
            | Error e ->
                Printf.printf "  verifier: %s\n"
                  (Plan_verify.error_to_string e);
                false)
      in
      check (name ^ ": verifier clean on SG plan") (plan_verified true);
      check (name ^ ": verifier clean on contiguous plan") (plan_verified false);
      let dec_opt = Stub_opt.compile_decoder ~enc ~mint:cmint ~named droots in
      let dec_naive = naive_decoder ~enc ~mint:cmint ~named droots in
      (* one instrumented encode per mode: copy accounting + segments *)
      let account on encoder =
        with_sg on (fun () ->
            let buf = Mbuf.acquire ~size:(bytes + 4096) () in
            Mbuf.reset_stats buf;
            encoder buf [| value |];
            (buf, Mbuf.stats buf, Mbuf.segment_count buf, Mbuf.pos buf))
      in
      let buf_sg, st_sg, segs_sg, wire_sg = account true enc_sg in
      (* decode straight over the segment list, before anything flattens *)
      let rt_ok dec =
        try Value.equal (dec (Mbuf.reader buf_sg)).(0) value
        with Mbuf.Short_buffer | Codec.Decode_error _ -> false
      in
      check (name ^ ": segmented decode round-trip (opt)") (rt_ok dec_opt);
      check (name ^ ": segmented decode round-trip (naive)") (rt_ok dec_naive);
      (* hand the message to the simulated link: length only, no flatten *)
      let sim = Sim_core.create () in
      let link = Link.ethernet_100 ~sim in
      let delivered = ref false in
      Link.transmit_mbuf link ~msg:buf_sg (fun () -> delivered := true);
      Sim_core.run sim;
      check (name ^ ": transmit_mbuf delivers") !delivered;
      check
        (name ^ ": decode and transmit never flatten")
        ((Mbuf.stats buf_sg).Mbuf.flattens = 0);
      (* byte equality across all engines *)
      let wire_of encoder =
        with_sg false (fun () ->
            let b = Mbuf.create (bytes + 4096) in
            encoder b [| value |];
            Mbuf.contents b)
      in
      let flat_sg = with_sg true (fun () -> Mbuf.contents buf_sg) in
      let flat_ct = wire_of enc_ct in
      let flat_naive = wire_of (naive_encoder ~enc ~mint:cmint ~named roots) in
      let flat_interp =
        wire_of (Stub_interp.compile_encoder ~enc ~mint:cmint ~named roots)
      in
      check (name ^ ": SG bytes = contiguous bytes") (Bytes.equal flat_sg flat_ct);
      check (name ^ ": SG bytes = naive engine") (Bytes.equal flat_sg flat_naive);
      check
        (name ^ ": SG bytes = interpretive engine")
        (Bytes.equal flat_sg flat_interp);
      Mbuf.release buf_sg;
      let buf_ct, st_ct, segs_ct, wire_ct = account false enc_ct in
      Mbuf.release buf_ct;
      check (name ^ ": wire length matches") (wire_sg = wire_ct);
      (* steady-state encode throughput, both modes *)
      let rate on encoder label =
        with_sg on (fun () ->
            let buf = Mbuf.acquire ~size:(bytes + 4096) () in
            encoder buf [| value |];
            let wire = Mbuf.pos buf in
            let ns =
              measure_ns label (fun () ->
                  Mbuf.reset buf;
                  encoder buf [| value |])
            in
            Mbuf.release buf;
            let v = mbps wire ns in
            if Float.is_nan v then 0. else v)
      in
      (* warm both closures once so measurement order does not bias the
         pair (the first-measured cell otherwise reads a few % low) *)
      ignore (rate true enc_sg (name ^ "/warm") : float);
      ignore (rate false enc_ct (name ^ "/warm") : float);
      let mb_sg = rate true enc_sg (name ^ "/sg") in
      let mb_ct = rate false enc_ct (name ^ "/contig") in
      let reduction =
        float_of_int st_ct.Mbuf.bytes_copied
        /. float_of_int (max 1 st_sg.Mbuf.bytes_copied)
      in
      Printf.printf "%-12s %9d %9d %-11s %10d %10d %5d %9.1f\n" name bytes
        wire_sg "sg" st_sg.Mbuf.bytes_copied st_sg.Mbuf.bytes_borrowed segs_sg
        mb_sg;
      Printf.printf "%-12s %9s %9s %-11s %10d %10d %5d %9.1f\n" "" "" ""
        "contiguous" st_ct.Mbuf.bytes_copied 0 segs_ct mb_ct;
      Buffer.add_string json
        (Printf.sprintf
           "%s\n    { \"workload\": %S, \"bytes\": %d, \"wire_bytes\": %d,\n\
           \      \"sg\": { \"bytes_copied\": %d, \"bytes_borrowed\": %d, \
            \"copies\": %d, \"borrows\": %d, \"seals\": %d, \"segments\": %d, \
            \"mbps\": %.1f },\n\
           \      \"contiguous\": { \"bytes_copied\": %d, \"segments\": %d, \
            \"mbps\": %.1f },\n\
           \      \"copy_reduction\": %.2f }"
           (if !first then "" else ",")
           name bytes wire_sg st_sg.Mbuf.bytes_copied st_sg.Mbuf.bytes_borrowed
           st_sg.Mbuf.copies st_sg.Mbuf.borrows st_sg.Mbuf.seals segs_sg mb_sg
           st_ct.Mbuf.bytes_copied segs_ct mb_ct reduction);
      first := false)
    (big_cases @ small_cases);
  Buffer.add_string json
    (Printf.sprintf "\n  ],\n  \"self_check_failed\": %b\n}\n" !sgwire_failed);
  let oc = open_out "BENCH_2.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !sgwire_failed then
    print_endline "\nsgwire: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall byte-equality, round-trip, and no-flatten self-checks passed";
  print_endline "wrote BENCH_2.json\n"

(* ------------------------------------------------------------------ *)
(* decplan - compiled unmarshal plans: chunked, zero-copy decode       *)
(* ------------------------------------------------------------------ *)

(* Reports, and records in BENCH_3.json:
   - static decode-plan shape: op and bounds-check counts for the
     chunked plan against the per-datum plan (the decode mirror of the
     planopt node counts);
   - decode time per message for the plan-driven decoder against the
     naive (rpcgen-style) and interpretive engines;
   - reader-side copy accounting for large string/byte-sequence
     payloads decoded with zero-copy views against the copying path,
     with throughput both ways ([--no-views] skips the view cells);
   - small-message decode times (plan vs naive) that must not regress;
   - decoder-closure and decode-plan cache hit rates on a repeated
     stub-compilation workload;
   - engine self-checks: the plan, naive and interpretive decoders must
     agree on Value.equal, truncated messages must fail to decode in the
     plan decoder, a view decode must equal its copying decode, and a >=64KB
     payload decoded with views on must copy zero payload bytes.  Any
     failure makes the whole run exit non-zero.
   [--smoke] shrinks the payloads so CI can run it in a few seconds. *)

let decplan_failed = ref false
let no_views = ref false

let decplan () =
  print_endline "============================================================";
  print_endline " decplan - compiled unmarshal plans (chunked, zero-copy)";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      decplan_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let with_sg on f =
    let old = Mbuf.sg_enabled () in
    Mbuf.set_sg_enabled on;
    Fun.protect ~finally:(fun () -> Mbuf.set_sg_enabled old) f
  in
  let plan_totals (p : Dplan.plan) count =
    count p.Dplan.d_ops
    + List.fold_left
        (fun acc (_, f) -> acc + count f.Dplan.f_ops)
        0 p.Dplan.d_subs
  in
  let json = Buffer.create 2048 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"decplan\",\n  \"smoke\": %b,\n  \
        \"views_enabled\": %b,\n  \"borrow_threshold\": %d"
       !smoke (not !no_views) (Mbuf.borrow_threshold ()));

  (* -- static plan shape: checks per message, chunked vs per-datum --- *)
  Printf.printf "\n%-6s %-13s %12s %12s %12s %12s\n" "enc" "operation"
    "ops/datum" "checks/datum" "ops/chunk" "checks/chunk";
  Buffer.add_string json ",\n  \"plan_shape\": [";
  let first = ref true in
  let rects_checks_reduced = ref false in
  List.iter
    (fun (ename, enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun op ->
          let spec = Paper_fixtures.request_spec pc ~op in
          let droots = spec.Paper_fixtures.ms_droots in
          let compile chunked =
            let p =
              Dplan_compile.compile ~enc ~mint:spec.Paper_fixtures.ms_mint
                ~named:spec.Paper_fixtures.ms_named ~chunked droots
            in
            if chunked then Pass.run_decode ~config:Opt_config.all p else p
          in
          let pd = compile false and ch = compile true in
          let dverified p =
            match Plan_verify.check_dplan p with
            | Ok () -> true
            | Error e ->
                Printf.printf "  verifier: %s\n"
                  (Plan_verify.error_to_string e);
                false
          in
          check
            (Printf.sprintf "%s/%s: verifier clean (per-datum)" ename op)
            (dverified pd);
          check
            (Printf.sprintf "%s/%s: verifier clean (chunked+passes)" ename op)
            (dverified ch);
          let ops_pd = plan_totals pd Dplan.count_ops
          and checks_pd = plan_totals pd Dplan.count_checks
          and ops_ch = plan_totals ch Dplan.count_ops
          and checks_ch = plan_totals ch Dplan.count_checks in
          (* the rectangle workload is the chunking showcase: four
             coordinate loads share one bounds check (dirents entries
             are a string plus one byte run — single checks already) *)
          if op = "send_rects" && checks_ch < checks_pd then
            rects_checks_reduced := true;
          Printf.printf "%-6s %-13s %12d %12d %12d %12d\n" ename op ops_pd
            checks_pd ops_ch checks_ch;
          Buffer.add_string json
            (Printf.sprintf
               "%s\n    { \"encoding\": %S, \"op\": %S, \"ops_per_datum\": \
                %d, \"checks_per_datum\": %d, \"ops_chunked\": %d, \
                \"checks_chunked\": %d }"
               (if !first then "" else ",")
               ename op ops_pd checks_pd ops_ch checks_ch);
          first := false)
        [ "send_ints"; "send_rects"; "send_dirents" ])
    [ ("xdr", Encoding.xdr, `Rpcgen); ("cdr", Encoding.cdr, `Corba) ];
  Buffer.add_string json "\n  ]";
  check "chunked rects plan has fewer bounds checks than per-datum"
    !rects_checks_reduced;

  (* -- differential self-check + decode throughput ------------------- *)
  let bytes = if !smoke then 4096 else 65536 in
  Printf.printf "\n%-6s %-13s %9s %10s %10s %10s %9s\n" "enc" "workload"
    "wire" "plan ns" "naive" "interp" "plan MB/s";
  Buffer.add_string json ",\n  \"throughput\": [";
  first := true;
  List.iter
    (fun (ename, enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun payload ->
          let op = Paper_fixtures.op_of_payload payload in
          let spec = Paper_fixtures.request_spec pc ~op in
          let mint = spec.Paper_fixtures.ms_mint
          and named = spec.Paper_fixtures.ms_named in
          let value = Paper_fixtures.payload payload ~bytes in
          let wire =
            with_sg false (fun () ->
                let buf = Mbuf.create (bytes + 4096) in
                Stub_opt.compile_encoder ~enc ~mint ~named
                  spec.Paper_fixtures.ms_roots buf [| value |];
                Mbuf.contents buf)
          in
          let droots = spec.Paper_fixtures.ms_droots in
          let dec_plan = Stub_opt.compile_decoder ~enc ~mint ~named droots in
          let dec_naive = naive_decoder ~enc ~mint ~named droots in
          let dec_interp =
            Stub_interp.compile_decoder ~enc ~mint ~named droots
          in
          let decode d = (d (Mbuf.reader_of_bytes wire)).(0) in
          let v_plan = decode dec_plan in
          check
            (Printf.sprintf "%s/%s: plan decode = input value" ename op)
            (Value.equal v_plan value);
          check
            (Printf.sprintf "%s/%s: plan decode = naive decode" ename op)
            (Value.equal v_plan (decode dec_naive));
          check
            (Printf.sprintf "%s/%s: plan decode = interp decode" ename op)
            (Value.equal v_plan (decode dec_interp));
          let fails d cut =
            match
              d (Mbuf.reader_of_bytes ~len:cut wire)
            with
            | (_ : Value.t array) -> false
            | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> true
          in
          let wlen = Bytes.length wire in
          check
            (Printf.sprintf "%s/%s: plan rejects truncated input" ename op)
            (fails dec_plan (wlen - 1) && fails dec_plan (wlen / 2));
          let time label d =
            let ns =
              measure_ns label (fun () ->
                  ignore (d (Mbuf.reader_of_bytes wire) : Value.t array))
            in
            if Float.is_nan ns then 0. else ns
          in
          let ns_plan = time (ename ^ "/" ^ op ^ "/plan") dec_plan in
          let ns_naive = time (ename ^ "/" ^ op ^ "/naive") dec_naive in
          let ns_interp = time (ename ^ "/" ^ op ^ "/interp") dec_interp in
          let mb_plan = if ns_plan > 0. then mbps wlen ns_plan else 0. in
          Printf.printf "%-6s %-13s %9d %10.0f %10.0f %10.0f %9.1f\n"
            ename op wlen ns_plan ns_naive ns_interp mb_plan;
          Buffer.add_string json
            (Printf.sprintf
               "%s\n    { \"encoding\": %S, \"op\": %S, \"bytes\": %d, \
                \"wire_bytes\": %d, \"plan_ns\": %.0f, \"naive_ns\": %.0f, \
                \"interp_ns\": %.0f, \"plan_mbps\": %.1f }"
               (if !first then "" else ",")
               ename op bytes wlen ns_plan ns_naive ns_interp mb_plan);
          first := false)
        [ `Ints; `Rects; `Dirents ])
    [ ("xdr", Encoding.xdr, `Rpcgen); ("cdr", Encoding.cdr, `Corba) ];
  Buffer.add_string json "\n  ]";

  (* -- zero-copy views on large payloads ----------------------------- *)
  let enc = Encoding.xdr in
  let vmint = Mint.create () in
  let str_t = Mint.string_ vmint ~max_len:None in
  let seq_t =
    Mint.array vmint ~elem:(Mint.char8 vmint) ~min_len:0 ~max_len:None
  in
  let seq_pres =
    Pres.Counted_seq { len_field = "len"; buf_field = "buf"; elem = Pres.Direct }
  in
  let root t pres =
    [
      Plan_compile.Rvalue
        (Mplan.Rparam { index = 0; name = "p"; deref = false }, t, pres);
    ]
  in
  let sizes =
    if !smoke then [ 4096; 65536 ] else [ 4096; 65536; 1048576; 4194304 ]
  in
  Printf.printf "\n%-10s %9s %-6s %10s %10s %5s %9s\n" "workload" "bytes"
    "mode" "copied" "viewed" "views" "MB/s";
  Buffer.add_string json ",\n  \"views\": [";
  first := true;
  List.iter
    (fun (name, t, pres, droot, mk) ->
      List.iter
        (fun bytes ->
          let value = mk bytes in
          let wire =
            with_sg false (fun () ->
                let buf = Mbuf.create (bytes + 4096) in
                Stub_opt.compile_encoder ~enc ~mint:vmint ~named:[]
                  (root t pres) buf [| value |];
                Mbuf.contents buf)
          in
          let wlen = Bytes.length wire in
          let dec_copy =
            Stub_opt.compile_decoder ~enc ~mint:vmint ~named:[] [ droot ]
          in
          (* view decisions are baked at closure-build time, so the
             decoder must be compiled with scatter-gather on *)
          let dec_view =
            with_sg true (fun () ->
                Stub_opt.compile_decoder ~enc ~mint:vmint ~named:[]
                  ~views:true [ droot ])
          in
          let account d =
            Mbuf.reset_reader_stats ();
            let v = (d (Mbuf.reader_of_bytes wire)).(0) in
            (v, Mbuf.reader_stats ())
          in
          let v_copy, st_copy = account dec_copy in
          let time label d =
            let ns =
              measure_ns label (fun () ->
                  ignore (d (Mbuf.reader_of_bytes wire) : Value.t array))
            in
            if Float.is_nan ns || ns <= 0. then 0. else mbps wlen ns
          in
          let mb_copy = time (name ^ "/copy") dec_copy in
          let view_cell =
            if !no_views then ""
            else begin
              let v_view, st_view = account dec_view in
              check
                (Printf.sprintf "%s/%d: view decode = copy decode" name bytes)
                (Value.equal v_view v_copy);
              if bytes >= 65536 then
                check
                  (Printf.sprintf "%s/%d: view decode copies zero payload \
                                   bytes" name bytes)
                  (st_view.Mbuf.rbytes_copied = 0);
              let mb_view = time (name ^ "/view") dec_view in
              Printf.printf "%-10s %9d %-6s %10d %10d %5d %9.1f\n" name bytes
                "view" st_view.Mbuf.rbytes_copied st_view.Mbuf.rbytes_viewed
                st_view.Mbuf.rviews mb_view;
              Printf.sprintf
                "\n      \"view\": { \"bytes_copied\": %d, \"bytes_viewed\": \
                 %d, \"views\": %d, \"mbps\": %.1f },"
                st_view.Mbuf.rbytes_copied st_view.Mbuf.rbytes_viewed
                st_view.Mbuf.rviews mb_view
            end
          in
          Printf.printf "%-10s %9d %-6s %10d %10d %5d %9.1f\n" name bytes
            "copy" st_copy.Mbuf.rbytes_copied st_copy.Mbuf.rbytes_viewed
            st_copy.Mbuf.rviews mb_copy;
          Buffer.add_string json
            (Printf.sprintf
               "%s\n    { \"workload\": %S, \"bytes\": %d, \"wire_bytes\": \
                %d,%s\n      \"copy\": { \"bytes_copied\": %d, \"mbps\": \
                %.1f } }"
               (if !first then "" else ",")
               name bytes wlen view_cell st_copy.Mbuf.rbytes_copied mb_copy);
          first := false)
        sizes)
    [
      ( "string", str_t, Pres.Terminated_string,
        Stub_opt.Dvalue (str_t, Pres.Terminated_string),
        fun n -> Value.Vstring (String.init n (fun i -> Char.chr (97 + (i mod 23)))) );
      ( "byteseq", seq_t, seq_pres,
        Stub_opt.Dvalue (seq_t, seq_pres),
        fun n -> Value.Vbytes (Bytes.init n (fun i -> Char.chr (i land 0xff))) );
    ];
  Buffer.add_string json "\n  ]";

  (* -- small messages: the plan path must not cost on the fast path -- *)
  Printf.printf "\n%-13s %6s %10s %10s %7s\n" "workload" "bytes" "plan ns"
    "naive" "ratio";
  Buffer.add_string json ",\n  \"small\": [";
  first := true;
  List.iter
    (fun (payload, bytes) ->
      let pc = Paper_fixtures.bench_presc `Rpcgen in
      let op = Paper_fixtures.op_of_payload payload in
      let spec = Paper_fixtures.request_spec pc ~op in
      let mint = spec.Paper_fixtures.ms_mint
      and named = spec.Paper_fixtures.ms_named in
      let value = Paper_fixtures.payload payload ~bytes in
      let wire =
        with_sg false (fun () ->
            let buf = Mbuf.create 4096 in
            Stub_opt.compile_encoder ~enc:Encoding.xdr ~mint ~named
              spec.Paper_fixtures.ms_roots buf [| value |];
            Mbuf.contents buf)
      in
      let droots = spec.Paper_fixtures.ms_droots in
      let dec_plan =
        Stub_opt.compile_decoder ~enc:Encoding.xdr ~mint ~named droots
      in
      let dec_naive = naive_decoder ~enc:Encoding.xdr ~mint ~named droots in
      let time label d =
        (* warm both cells so measurement order does not bias the pair *)
        ignore
          (measure_ns (label ^ "/warm") (fun () ->
               ignore (d (Mbuf.reader_of_bytes wire) : Value.t array))
            : float);
        let ns =
          measure_ns label (fun () ->
              ignore (d (Mbuf.reader_of_bytes wire) : Value.t array))
        in
        if Float.is_nan ns then 0. else ns
      in
      let ns_plan = time (op ^ "/small/plan") dec_plan in
      let ns_naive = time (op ^ "/small/naive") dec_naive in
      let ratio = if ns_naive > 0. then ns_plan /. ns_naive else 0. in
      Printf.printf "%-13s %6d %10.0f %10.0f %7.2f\n" op bytes ns_plan
        ns_naive ratio;
      Buffer.add_string json
        (Printf.sprintf
           "%s\n    { \"op\": %S, \"bytes\": %d, \"plan_ns\": %.0f, \
            \"naive_ns\": %.0f, \"plan_vs_naive\": %.2f }"
           (if !first then "" else ",")
           op bytes ns_plan ns_naive ratio);
      first := false)
    [ (`Ints, 64); (`Dirents, 256) ];
  Buffer.add_string json "\n  ]";

  (* -- decoder cache hit rates --------------------------------------- *)
  Plan_cache.reset_all ();
  let rounds = 20 in
  for _round = 1 to rounds do
    List.iter
      (fun (_, enc, style) ->
        let pc = Paper_fixtures.bench_presc style in
        List.iter
          (fun op ->
            let spec = Paper_fixtures.request_spec pc ~op in
            ignore
              (Stub_opt.compile_decoder ~enc ~mint:spec.Paper_fixtures.ms_mint
                 ~named:spec.Paper_fixtures.ms_named
                 spec.Paper_fixtures.ms_droots
                : Stub_opt.decoder);
            (* hit the plan cache directly too: a decoder-closure cache
               hit never reaches it (dump-plan and the C back ends do) *)
            ignore
              (Plan_cache.dplan ~enc ~mint:spec.Paper_fixtures.ms_mint
                 ~named:spec.Paper_fixtures.ms_named
                 spec.Paper_fixtures.ms_droots
                : Dplan.plan))
          [ "send_ints"; "send_rects"; "send_dirents" ])
      [ ("xdr", Encoding.xdr, `Rpcgen); ("cdr", Encoding.cdr, `Corba) ]
  done;
  let per_cache =
    List.filter
      (fun (name, _) -> name = "stub_opt.decoder" || name = "dplan")
      (Plan_cache.all_stats ())
  in
  Printf.printf "\ndecoder caches over %d rounds x 6 stub compilations:\n"
    rounds;
  Buffer.add_string json
    (Printf.sprintf ",\n  \"cache\": { \"rounds\": %d, \"per_cache\": ["
       rounds);
  first := true;
  List.iter
    (fun (name, st) ->
      cache_report_line name st;
      check
        (Printf.sprintf "%s cache: warm compilations hit" name)
        (st.Plan_cache.hits > 0 && st.Plan_cache.misses <= st.Plan_cache.entries + 6);
      Buffer.add_string json
        (Printf.sprintf "%s\n      %s"
           (if !first then "" else ",")
           (cache_json name st));
      first := false)
    per_cache;
  check "decoder caches registered" (List.length per_cache = 2);
  Buffer.add_string json "\n    ] }";

  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !decplan_failed);
  let oc = open_out "BENCH_3.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !decplan_failed then
    print_endline "\ndecplan: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall differential, truncation, zero-copy, and cache self-checks passed";
  print_endline "wrote BENCH_3.json\n"

(* ------------------------------------------------------------------ *)
(* tracematrix - per-pass traces over the full compile matrix           *)
(* ------------------------------------------------------------------ *)

(* Runs the optimizer with per-pass tracing over every (encoding x
   operation x compilation mode) cell of the paper's Bench matrix, both
   sides, with the structural verifier after every pass, and merges the
   result into BENCH_1.json under a "trace_matrix" key (next to the
   planopt report; standalone if that file is absent).  Self-checks:
   - the final (nodes, checks) of every cell matches the pinned table
     below, so a plan-size regression anywhere in the matrix fails CI;
   - no pass ever increases the node count;
   - the verifier is clean after every pass of every cell.
   Compile-only, so [--smoke] is a no-op here. *)

let tracematrix_failed = ref false

(* Pinned (nodes, checks) after the full pipeline, per
   (encoding, operation, mode, side).  Regenerate by running
   `bench/main.exe tracematrix` and copying the rows it prints for any
   MISMATCH/MISSING cell — but first understand why the plans changed. *)
let tracematrix_expected =
  [
    (("xdr", "send_ints", "chunked", "encode"), (3, 2));
    (("xdr", "send_ints", "chunked", "decode"), (3, 3));
    (("xdr", "send_ints", "per-datum", "encode"), (3, 2));
    (("xdr", "send_ints", "per-datum", "decode"), (3, 3));
    (("xdr", "send_rects", "chunked", "encode"), (10, 3));
    (("xdr", "send_rects", "chunked", "decode"), (8, 3));
    (("xdr", "send_rects", "per-datum", "encode"), (10, 3));
    (("xdr", "send_rects", "per-datum", "decode"), (8, 3));
    (("xdr", "send_dirents", "chunked", "encode"), (37, 4));
    (("xdr", "send_dirents", "chunked", "decode"), (7, 6));
    (("xdr", "send_dirents", "per-datum", "encode"), (37, 4));
    (("xdr", "send_dirents", "per-datum", "decode"), (7, 6));
    (("cdr", "send_ints", "chunked", "encode"), (2, 2));
    (("cdr", "send_ints", "chunked", "decode"), (2, 4));
    (("cdr", "send_ints", "per-datum", "encode"), (2, 2));
    (("cdr", "send_ints", "per-datum", "decode"), (2, 4));
    (("cdr", "send_rects", "chunked", "encode"), (10, 3));
    (("cdr", "send_rects", "chunked", "decode"), (8, 4));
    (("cdr", "send_rects", "per-datum", "encode"), (10, 3));
    (("cdr", "send_rects", "per-datum", "decode"), (8, 4));
    (("cdr", "send_dirents", "chunked", "encode"), (38, 4));
    (("cdr", "send_dirents", "chunked", "decode"), (7, 7));
    (("cdr", "send_dirents", "per-datum", "encode"), (38, 4));
    (("cdr", "send_dirents", "per-datum", "decode"), (7, 7));
    (("mach3", "send_ints", "chunked", "encode"), (5, 2));
    (("mach3", "send_ints", "chunked", "decode"), (3, 3));
    (("mach3", "send_ints", "per-datum", "encode"), (5, 2));
    (("mach3", "send_ints", "per-datum", "decode"), (3, 3));
    (("mach3", "send_rects", "chunked", "encode"), (17, 3));
    (("mach3", "send_rects", "chunked", "decode"), (9, 3));
    (("mach3", "send_rects", "per-datum", "encode"), (17, 3));
    (("mach3", "send_rects", "per-datum", "decode"), (9, 3));
    (("mach3", "send_dirents", "chunked", "encode"), (44, 5));
    (("mach3", "send_dirents", "chunked", "decode"), (10, 8));
    (("mach3", "send_dirents", "per-datum", "encode"), (44, 5));
    (("mach3", "send_dirents", "per-datum", "decode"), (10, 8));
  ]

let tracematrix () =
  print_endline "============================================================";
  print_endline " tracematrix - per-pass traces over the full compile matrix";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      tracematrix_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let json = Buffer.create 4096 in
  Buffer.add_string json "{ \"cells\": [";
  let first_cell = ref true in
  Printf.printf "\n%-6s %-13s %-10s %-6s %8s %8s %7s %6s\n" "enc" "operation"
    "mode" "side" "nodes" "checks" "passes" "rounds";
  let do_side ~ename ~op ~mode ~(side : _ Pass.side) ~run raw =
    let traces : Pass.trace list ref = ref [] in
    let config =
      { (Opt_config.all) with Opt_config.verify = true }
    in
    let opt = run ~config ~on_trace:(fun tr -> traces := tr :: !traces) raw in
    let traces = List.rev !traces in
    let cell = Printf.sprintf "%s/%s/%s/%s" ename op mode side.Pass.s_name in
    List.iter
      (fun (tr : Pass.trace) ->
        check
          (Printf.sprintf "%s: pass %s grew the plan (%d -> %d)" cell
             tr.Pass.tr_pass tr.Pass.tr_nodes_before tr.Pass.tr_nodes_after)
          (tr.Pass.tr_nodes_after <= tr.Pass.tr_nodes_before);
        check
          (Printf.sprintf "%s: pass %s ran unverified" cell tr.Pass.tr_pass)
          tr.Pass.tr_verified)
      traces;
    check
      (Printf.sprintf "%s: verifier clean on the final plan" cell)
      (match side.Pass.s_verify opt with
      | Ok () -> true
      | Error e ->
          Printf.printf "  verifier: %s\n" (Plan_verify.error_to_string e);
          false);
    let nodes = side.Pass.s_nodes opt and checks = side.Pass.s_checks opt in
    let rounds =
      List.fold_left (fun m (tr : Pass.trace) -> max m tr.Pass.tr_round) 1
        traces
    in
    Printf.printf "%-6s %-13s %-10s %-6s %8d %8d %7d %6d\n" ename op mode
      side.Pass.s_name nodes checks (List.length traces) rounds;
    let key = (ename, op, mode, side.Pass.s_name) in
    (match List.assoc_opt key tracematrix_expected with
    | Some (en, ec) when en = nodes && ec = checks -> ()
    | Some (en, ec) ->
        check
          (Printf.sprintf
             "%s: pinned (%d nodes, %d checks), got (%d, %d) — \
              regenerate:  ((%S, %S, %S, %S), (%d, %d));"
             cell en ec nodes checks ename op mode side.Pass.s_name nodes
             checks)
          false
    | None ->
        check
          (Printf.sprintf
             "%s: no pinned expectation — add:  ((%S, %S, %S, %S), (%d, %d));"
             cell ename op mode side.Pass.s_name nodes checks)
          false);
    Buffer.add_string json
      (Printf.sprintf
         "%s\n    { \"encoding\": %S, \"op\": %S, \"mode\": %S, \"side\": \
          %S, \"nodes\": %d, \"checks\": %d, \"rounds\": %d, \"passes\": [%s] }"
         (if !first_cell then "" else ",")
         ename op mode side.Pass.s_name nodes checks rounds
         (String.concat ", "
            (List.map
               (fun (tr : Pass.trace) ->
                 Printf.sprintf
                   "{ \"pass\": %S, \"round\": %d, \"nodes_before\": %d, \
                    \"nodes_after\": %d, \"checks_before\": %d, \
                    \"checks_after\": %d }"
                   tr.Pass.tr_pass tr.Pass.tr_round tr.Pass.tr_nodes_before
                   tr.Pass.tr_nodes_after tr.Pass.tr_checks_before
                   tr.Pass.tr_checks_after)
               traces)));
    first_cell := false
  in
  List.iter
    (fun (ename, enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun op ->
          let spec = Paper_fixtures.request_spec pc ~op in
          List.iter
            (fun (mode, chunked) ->
              let raw =
                Plan_compile.compile ~enc ~mint:spec.Paper_fixtures.ms_mint
                  ~named:spec.Paper_fixtures.ms_named ~chunked
                  spec.Paper_fixtures.ms_roots
              in
              do_side ~ename ~op ~mode ~side:Pass.encode_side
                ~run:(fun ~config ~on_trace p ->
                  Pass.run_encode ~config ~on_trace p)
                raw;
              let draw =
                Dplan_compile.compile ~enc ~mint:spec.Paper_fixtures.ms_mint
                  ~named:spec.Paper_fixtures.ms_named ~chunked
                  spec.Paper_fixtures.ms_droots
              in
              do_side ~ename ~op ~mode ~side:Pass.decode_side
                ~run:(fun ~config ~on_trace p ->
                  Pass.run_decode ~config ~on_trace p)
                draw)
            [ ("chunked", true); ("per-datum", false) ])
        [ "send_ints"; "send_rects"; "send_dirents" ])
    [
      ("xdr", Encoding.xdr, `Rpcgen);
      ("cdr", Encoding.cdr, `Corba);
      ("mach3", Encoding.mach3, `Fluke);
    ];
  Buffer.add_string json "\n  ] }";
  let tm_json = Buffer.contents json in
  (* merge into the planopt report when one is present: BENCH_1.json is
     the optimizer's artifact file, and consumers want one object *)
  let marker = ",\n  \"trace_matrix\"" in
  let read_all path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let rstrip s =
    let n = ref (String.length s) in
    while
      !n > 0
      && (match s.[!n - 1] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      decr n
    done;
    String.sub s 0 !n
  in
  let base =
    if Sys.file_exists "BENCH_1.json" then begin
      let s = read_all "BENCH_1.json" in
      match find_sub s marker with
      | Some i -> Some (String.sub s 0 i) (* re-run: replace our key *)
      | None ->
          let s = rstrip s in
          let n = String.length s in
          if n > 0 && s.[n - 1] = '}' then
            Some (rstrip (String.sub s 0 (n - 1)))
          else None
    end
    else None
  in
  let merged =
    match base with
    | Some b ->
        Printf.sprintf "%s%s: %s,\n  \"tracematrix_failed\": %b\n}\n" b marker
          tm_json !tracematrix_failed
    | None ->
        Printf.sprintf
          "{\n  \"artifact\": \"tracematrix\",\n  \"trace_matrix\": %s,\n\
          \  \"self_check_failed\": %b\n}\n"
          tm_json !tracematrix_failed
  in
  (match Obs_json.parse merged with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "merged BENCH_1.json parses: %s" msg) false);
  let oc = open_out "BENCH_1.json" in
  output_string oc merged;
  close_out oc;
  if !tracematrix_failed then
    print_endline "\ntracematrix: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall matrix pins, node-monotonicity, and verifier checks passed";
  Printf.printf "%s trace_matrix into BENCH_1.json\n\n"
    (match base with Some _ -> "merged" | None -> "wrote")

(* ------------------------------------------------------------------ *)

(* The server-loop artifact: the concurrent RPC server (lib/serve) under
   a closed-loop echo workload, swept across connection counts.  Writes
   BENCH_4.json with requests/sec, shed rate, and latency percentiles
   per point.  Self-checks:
   - every Ok reply byte-identical to its request payload (diff_ok);
   - request accounting closed (frames = accepted + shed + errors, and
     every logical request ends Ok or shed-final);
   - throughput scales with connections until the server saturates
     (rps grows 1 -> 8 -> 32, then holds within 10% at 64);
   - no shedding at 1 connection, shedding present at 64 (the in-flight
     budget is 32, so 64 closed-loop clients must overrun it);
   - the in-flight high-water mark respects the budget;
   - pooled writers/readers all return (no leak across the sweep);
   - the sweep hits the compiled-plan caches (hot-path reuse).
   [--smoke] shrinks requests-per-connection so CI runs in seconds. *)

let serve_failed = ref false

let serve () =
  print_endline "============================================================";
  print_endline " serve - concurrent RPC server loop vs connection count";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      serve_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let requests_per_conn = if !smoke then 60 else 300 in
  let cfg = Rpc_serve.default_config in
  let pool_before = Mbuf.pool_stats () in
  let cache_hits_before =
    List.fold_left
      (fun acc (_, s) -> acc + s.Plan_cache.hits)
      0 (Plan_cache.all_stats ())
  in
  Printf.printf "\n%d requests/connection, budget %d in flight, echo on %s\n"
    requests_per_conn cfg.Rpc_serve.max_in_flight "xdr send_ints (1 KiB)";
  Printf.printf "\n%6s %9s %8s %7s %9s %9s %9s %6s\n" "conns" "requests"
    "ok" "shed" "rps" "p50us" "p99us" "hw";
  let sweep =
    List.map
      (fun conns ->
        let p = Rpc_serve.run_workload ~requests_per_conn ~conns () in
        Printf.printf "%6d %9d %8d %7d %9.0f %9.0f %9.0f %6d\n" conns
          p.Rpc_serve.sp_requests p.Rpc_serve.sp_ok
          p.Rpc_serve.sp_stats.Rpc_serve.st_shed p.Rpc_serve.sp_rps
          p.Rpc_serve.sp_p50_us p.Rpc_serve.sp_p99_us
          p.Rpc_serve.sp_stats.Rpc_serve.st_in_flight_hw;
        p)
      [ 1; 8; 32; 64 ]
  in
  List.iter
    (fun (p : Rpc_serve.sweep_point) ->
      let st = p.Rpc_serve.sp_stats in
      let tag = Printf.sprintf "%d conns" p.Rpc_serve.sp_conns in
      check (tag ^ ": every Ok reply byte-identical to its request")
        p.Rpc_serve.sp_diff_ok;
      check (tag ^ ": frame accounting closed")
        (st.Rpc_serve.st_frames_in
        = st.Rpc_serve.st_accepted + st.Rpc_serve.st_shed
          + st.Rpc_serve.st_bad_request + st.Rpc_serve.st_unknown_op);
      check (tag ^ ": every logical request resolved")
        (p.Rpc_serve.sp_ok + p.Rpc_serve.sp_shed_final
        = p.Rpc_serve.sp_requests);
      check (tag ^ ": no protocol errors on a clean workload")
        (st.Rpc_serve.st_bad_request = 0 && st.Rpc_serve.st_unknown_op = 0
        && st.Rpc_serve.st_killed_conns = 0);
      check (tag ^ ": in-flight high water within budget")
        (st.Rpc_serve.st_in_flight_hw <= cfg.Rpc_serve.max_in_flight))
    sweep;
  let rps n =
    match
      List.find_opt (fun p -> p.Rpc_serve.sp_conns = n) sweep
    with
    | Some p -> p.Rpc_serve.sp_rps
    | None -> 0.
  in
  let shed_rate n =
    match
      List.find_opt (fun p -> p.Rpc_serve.sp_conns = n) sweep
    with
    | Some p -> p.Rpc_serve.sp_shed_rate
    | None -> 1.
  in
  check "throughput scales 1 -> 8 connections (> 1.3x)"
    (rps 8 > 1.3 *. rps 1);
  check "throughput still grows 8 -> 32 connections" (rps 32 > rps 8);
  check "saturated throughput holds at 64 connections (>= 0.9x of 32)"
    (rps 64 >= 0.9 *. rps 32);
  check "no shedding at 1 connection" (shed_rate 1 = 0.);
  check "backpressure sheds at 64 connections" (shed_rate 64 > 0.);
  let pool_after = Mbuf.pool_stats () in
  check "no pooled writers leaked across the sweep"
    (pool_after.Mbuf.writers_outstanding
    = pool_before.Mbuf.writers_outstanding);
  check "no pooled readers leaked across the sweep"
    (pool_after.Mbuf.readers_outstanding
    = pool_before.Mbuf.readers_outstanding);
  let cache_hits_after =
    List.fold_left
      (fun acc (_, s) -> acc + s.Plan_cache.hits)
      0 (Plan_cache.all_stats ())
  in
  check "the sweep reuses compiled plans through the cache"
    (cache_hits_after > cache_hits_before);
  let json = Buffer.create 4096 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"serve\",\n  \"smoke\": %b,\n\
       \  \"config\": { \"max_in_flight\": %d, \"service_fixed_us\": %.1f, \
        \"flush_delay_us\": %.1f, \"requests_per_conn\": %d },\n\
       \  \"sweep\": ["
       !smoke cfg.Rpc_serve.max_in_flight
       (cfg.Rpc_serve.service_fixed_s *. 1e6)
       (cfg.Rpc_serve.flush_delay_s *. 1e6)
       requests_per_conn);
  List.iteri
    (fun i (p : Rpc_serve.sweep_point) ->
      let st = p.Rpc_serve.sp_stats in
      Buffer.add_string json
        (Printf.sprintf
           "%s\n    { \"conns\": %d, \"requests\": %d, \"ok\": %d, \
            \"shed\": %d, \"shed_final\": %d, \"retransmits\": %d, \
            \"rps\": %.1f, \"shed_rate\": %.4f, \"p50_us\": %.1f, \
            \"p99_us\": %.1f, \"in_flight_hw\": %d, \"flushes\": %d, \
            \"coalesced\": %d, \"bytes_in\": %d, \"bytes_out\": %d }"
           (if i = 0 then "" else ",")
           p.Rpc_serve.sp_conns p.Rpc_serve.sp_requests p.Rpc_serve.sp_ok
           st.Rpc_serve.st_shed p.Rpc_serve.sp_shed_final
           p.Rpc_serve.sp_retransmits p.Rpc_serve.sp_rps
           p.Rpc_serve.sp_shed_rate p.Rpc_serve.sp_p50_us
           p.Rpc_serve.sp_p99_us st.Rpc_serve.st_in_flight_hw
           st.Rpc_serve.st_flushes st.Rpc_serve.st_coalesced
           st.Rpc_serve.st_bytes_in st.Rpc_serve.st_bytes_out))
    sweep;
  Buffer.add_string json
    (Printf.sprintf "\n  ],\n  \"self_check_failed\": %b\n}\n" !serve_failed);
  (match Obs_json.parse (Buffer.contents json) with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "BENCH_4.json parses: %s" msg) false);
  let oc = open_out "BENCH_4.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !serve_failed then
    print_endline "\nserve: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall differential, accounting, scaling, backpressure, and \
       pool-leak checks passed";
  print_endline "wrote BENCH_4.json\n"

(* ------------------------------------------------------------------ *)
(* executor - the plan executor vs the rpcgen-style engine              *)
(* ------------------------------------------------------------------ *)

(* The executor artifact: Stub_opt's serving closures (compile_encoder /
   compile_decoder — the one executor per direction) against the
   rpcgen-style engine (Stub_naive) on the paper's three workloads at
   64KB, across the three fixed wire encodings.  Writes BENCH_5.json.
   Self-checks:
   - every executor encoding is byte-identical to the naive engine's;
   - every executor decode returns the input value and rejects
     truncated input (len-1 and len/2) with a typed error;
   - the gate: on the 64KB directory workload, executor encode is
     >= [executor_min_speedup] x Stub_naive encode for at least two
     encodings.  The threshold is the lowest ratio measured for the
     staged closure that served this workload before the chunk
     regrouping moved into the executor; the regrouping (Seg_run over
     each dirent's fields) is what clears it — without it the executor
     falls well below.
   [--full] adds 1KB rows; the 64KB gate rows run in every mode, smoke
   included. *)

let executor_failed = ref false
let executor_min_speedup = 6.0

let executor () =
  print_endline "============================================================";
  print_endline " executor - the plan executor vs the rpcgen-style engine";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      executor_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let sizes = if !full then [ 1024; 65536 ] else [ 65536 ] in
  let min_speedup = executor_min_speedup and need_encodings = 2 in
  let json = Buffer.create 4096 in
  Buffer.add_string json
    (Printf.sprintf "{\n  \"artifact\": \"executor\",\n  \"smoke\": %b,\n  \"rows\": ["
       !smoke);
  Printf.printf "\n%-6s %-13s %9s %-6s %10s %10s %8s\n" "enc" "workload"
    "wire" "side" "naive ns" "executor" "speedup";
  let first = ref true in
  (* encoding -> 64KB dirents encode speedup *)
  let gate_rows : (string * float) list ref = ref [] in
  List.iter
    (fun (ename, enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun payload ->
          let op = Paper_fixtures.op_of_payload payload in
          let spec = Paper_fixtures.request_spec pc ~op in
          let mint = spec.Paper_fixtures.ms_mint
          and named = spec.Paper_fixtures.ms_named in
          let roots = spec.Paper_fixtures.ms_roots
          and droots = spec.Paper_fixtures.ms_droots in
          List.iter
            (fun bytes ->
              let tag = Printf.sprintf "%s/%s/%dB" ename op bytes in
              let value = Paper_fixtures.payload payload ~bytes in
              let time f =
                let ns = measure_ns tag f in
                if Float.is_nan ns then 0. else ns
              in
              (* -- encode ------------------------------------------- *)
              let enc_x = flick_encoder ~enc ~mint ~named roots
              and enc_n = naive_encoder ~enc ~mint ~named roots in
              let encode e =
                let buf = Mbuf.create (bytes + 8192) in
                e buf [| value |];
                Mbuf.contents buf
              in
              let wire = encode enc_x in
              let wlen = Bytes.length wire in
              check (tag ^ ": executor bytes identical to naive bytes")
                (Bytes.equal wire (encode enc_n));
              let time_encode e =
                let buf = Mbuf.create (bytes + 8192) in
                time (fun () ->
                    Mbuf.reset buf;
                    e buf [| value |])
              in
              let ns_en = time_encode enc_n and ns_ex = time_encode enc_x in
              (* -- decode ------------------------------------------- *)
              let dec_x = flick_decoder ~enc ~mint ~named droots
              and dec_n = naive_decoder ~enc ~mint ~named droots in
              check (tag ^ ": executor decode returns the input value")
                (Value.equal (dec_x (Mbuf.reader_of_bytes wire)).(0) value);
              let fails cut =
                match dec_x (Mbuf.reader_of_bytes ~len:cut wire) with
                | (_ : Value.t array) -> false
                | exception (Mbuf.Short_buffer | Codec.Decode_error _) ->
                    true
              in
              check (tag ^ ": executor decode rejects truncated input")
                (fails (wlen - 1) && fails (wlen / 2));
              let time_decode d =
                time (fun () ->
                    ignore (d (Mbuf.reader_of_bytes wire) : Value.t array))
              in
              let ns_dn = time_decode dec_n and ns_dx = time_decode dec_x in
              let speedup naive x = if x > 0. then naive /. x else 0. in
              let sp_e = speedup ns_en ns_ex and sp_d = speedup ns_dn ns_dx in
              Printf.printf "%-6s %-13s %9d %-6s %10.0f %10.0f %7.2fx\n"
                ename op wlen "encode" ns_en ns_ex sp_e;
              Printf.printf "%-6s %-13s %9d %-6s %10.0f %10.0f %7.2fx\n"
                ename op wlen "decode" ns_dn ns_dx sp_d;
              if op = "send_dirents" && bytes = 65536 then
                gate_rows := !gate_rows @ [ (ename, sp_e) ];
              Buffer.add_string json
                (Printf.sprintf
                   "%s\n    { \"encoding\": %S, \"op\": %S, \"bytes\": %d, \
                    \"wire_bytes\": %d, \"encode_naive_ns\": %.0f, \
                    \"encode_executor_ns\": %.0f, \"encode_speedup\": %.3f, \
                    \"decode_naive_ns\": %.0f, \"decode_executor_ns\": %.0f, \
                    \"decode_speedup\": %.3f }"
                   (if !first then "" else ",")
                   ename op bytes wlen ns_en ns_ex sp_e ns_dn ns_dx sp_d);
              first := false)
            sizes)
        [ `Ints; `Rects; `Dirents ])
    [
      ("xdr", Encoding.xdr, `Rpcgen);
      ("cdr", Encoding.cdr, `Corba);
      ("mach3", Encoding.mach3, `Fluke);
    ];
  Buffer.add_string json "\n  ]";
  (* -- the gate ------------------------------------------------------- *)
  let passing = List.filter (fun (_, sp) -> sp >= min_speedup) !gate_rows in
  let passed = List.length passing >= need_encodings in
  Printf.printf
    "\n64KB dirents gate (executor encode >= %.2fx naive, >= %d encodings):\n"
    min_speedup need_encodings;
  List.iter
    (fun (ename, sp) ->
      Printf.printf "  %-6s encode %5.2fx  %s\n" ename sp
        (if sp >= min_speedup then "pass" else "below"))
    !gate_rows;
  check
    (Printf.sprintf
       "executor encode >= %.2fx naive on 64KB dirents for >= %d encodings"
       min_speedup need_encodings)
    passed;
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"gate\": { \"op\": \"send_dirents\", \"bytes\": 65536, \
        \"side\": \"encode\", \"baseline\": \"naive\", \
        \"min_speedup\": %.2f, \"required_encodings\": %d, \
        \"rows\": [%s], \"passing_encodings\": [%s], \"passed\": %b }"
       min_speedup need_encodings
       (String.concat ", "
          (List.map
             (fun (ename, sp) ->
               Printf.sprintf "{ \"encoding\": %S, \"encode_speedup\": %.3f }"
                 ename sp)
             !gate_rows))
       (String.concat ", "
          (List.map (fun (ename, _) -> Printf.sprintf "%S" ename) passing))
       passed);
  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !executor_failed);
  (match Obs_json.parse (Buffer.contents json) with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "BENCH_5.json parses: %s" msg) false);
  let oc = open_out "BENCH_5.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !executor_failed then
    print_endline "\nexecutor: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall byte-identity, decode-equality, truncation, and speedup-gate \
       checks passed";
  print_endline "wrote BENCH_5.json\n"

(* ------------------------------------------------------------------ *)
(* gateway - fused forward relaying vs decode-then-reencode             *)
(* ------------------------------------------------------------------ *)

(* The forward-plan artifact: the fused relay ({!Stub_forward}) against
   the materializing decode-then-reencode baseline, swept over payload
   sizes and same-/cross-encoding pairs.  Writes BENCH_6.json.
   Self-checks:
   - every cell's fused output is byte-identical to the baseline's, and
     its plan is clean under {!Plan_verify.check_fplan};
   - a simulator round trip through {!Rpc_gateway} (client -> proxy ->
     backend echo) answers every request with the client's own payload
     bytes;
   - the tentpole gates (skipped under --no-forward): on 64KB
     same-encoding integer arrays the fused relay is >= 1.5x the
     baseline, and the payload moves by reference —
     forward.copied_bytes stays 0 and forward.fallback_fields stays 0
     while forward.borrowed_bytes covers the array (it sits above the
     borrow threshold, so Mbuf.transfer splices instead of copying).
   [--no-forward] disables fusion globally (Fplan_compile.set_enabled):
   every relay then runs the whole-message materialize fallback behind
   the forward interface; the parity cells still must agree, and the
   gates are recorded as not applied. *)

let gateway_failed = ref false

let obs_counter name =
  List.fold_left
    (fun acc s ->
      match s with Obs.Scounter (n, v) when n = name -> v | _ -> acc)
    0 (Obs.snapshot ())

let gateway () =
  print_endline "============================================================";
  print_endline " gateway - fused forward relaying vs decode-then-reencode";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      gateway_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let encs =
    [ ("xdr", Encoding.xdr); ("cdr", Encoding.cdr);
      ("mach3", Encoding.mach3); ("fluke", Encoding.fluke) ]
  in
  let pairs =
    (* the two same-encoding gate pairs run in every mode *)
    if !smoke then [ ("xdr", "xdr"); ("cdr", "cdr"); ("cdr", "xdr") ]
    else
      [ ("xdr", "xdr"); ("cdr", "cdr"); ("cdr", "xdr"); ("xdr", "cdr");
        ("cdr", "fluke"); ("fluke", "mach3") ]
  in
  let payloads = if !full then [ `Ints; `Rects; `Dirents ] else [ `Ints; `Dirents ] in
  let sizes =
    if !smoke then [ 65536 ]
    else if !full then [ 4096; 65536; 1048576 ]
    else [ 4096; 65536 ]
  in
  let min_speedup = 1.5 in
  let fwd_on = Fplan_compile.enabled () in
  let json = Buffer.create 4096 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"gateway\",\n  \"smoke\": %b,\n\
       \  \"forward_enabled\": %b,\n  \"borrow_threshold\": %d,\n\
       \  \"rows\": ["
       !smoke fwd_on (Mbuf.borrow_threshold ()));
  Printf.printf "\n%-12s %-13s %9s %12s %10s %8s %10s %9s\n" "pair" "workload"
    "wire" "baseline ns" "fused ns" "speedup" "borrowed" "copied";
  let first = ref true in
  (* same-encoding 64KB ints rows feed the gates:
     (pair, speedup, borrowed, copied, fallbacks, payload bytes) *)
  let gate_rows = ref [] in
  List.iter
    (fun (sname, dname) ->
      let src = List.assoc sname encs and dst = List.assoc dname encs in
      let style =
        match sname with "cdr" -> `Corba | "xdr" -> `Rpcgen | _ -> `Fluke
      in
      let pc = Paper_fixtures.bench_presc style in
      List.iter
        (fun payload ->
          let op = Paper_fixtures.op_of_payload payload in
          let spec = Paper_fixtures.request_spec pc ~op in
          let mint = spec.Paper_fixtures.ms_mint
          and named = spec.Paper_fixtures.ms_named in
          let roots = spec.Paper_fixtures.ms_roots in
          let droots = spec.Paper_fixtures.ms_droots in
          List.iter
            (fun bytes ->
              let tag = Printf.sprintf "%s->%s/%s/%dB" sname dname op bytes in
              let value = Paper_fixtures.payload payload ~bytes in
              let enc_src =
                Stub_opt.compile_encoder ~enc:src ~mint ~named roots
              in
              let buf = Mbuf.create (bytes + 8192) in
              enc_src buf [| value |];
              let wire = Mbuf.contents buf in
              let wlen = Bytes.length wire in
              (* the materializing baseline: decode every field to a
                 Value.t, re-encode under the destination *)
              let dec =
                Stub_opt.compile_decoder ~enc:src ~mint ~named
                  spec.Paper_fixtures.ms_droots
              in
              let re = Stub_opt.compile_encoder ~enc:dst ~mint ~named roots in
              let baseline r w = re w (dec r) in
              let plan =
                Stub_forward.forward_plan ~src ~dst ~mint ~named droots roots
              in
              (match Plan_verify.check_fplan plan with
              | Ok () -> ()
              | Error e ->
                  check
                    (tag ^ ": forward verifier clean: "
                    ^ Plan_verify.error_to_string e)
                    false);
              let fused = Stub_forward.forward_of_plan plan in
              let run_once f =
                let w = Mbuf.create (wlen + 8192) in
                f (Mbuf.reader_of_bytes wire) w;
                Mbuf.contents w
              in
              let base_out = run_once baseline in
              let bor0 = obs_counter "forward.borrowed_bytes"
              and cop0 = obs_counter "forward.copied_bytes"
              and fb0 = obs_counter "forward.fallback_fields"
              and bsw0 = obs_counter "forward.bswap_bytes" in
              let fused_out = run_once fused in
              let borrowed = obs_counter "forward.borrowed_bytes" - bor0
              and copied = obs_counter "forward.copied_bytes" - cop0
              and fallbacks = obs_counter "forward.fallback_fields" - fb0
              and bswapped = obs_counter "forward.bswap_bytes" - bsw0 in
              let identical = Bytes.equal fused_out base_out in
              check (tag ^ ": fused byte-identical to decode-then-reencode")
                identical;
              let time which f =
                let w = Mbuf.create (wlen + 8192) in
                let ns =
                  measure_ns
                    (tag ^ "/" ^ which)
                    (fun () ->
                      Mbuf.reset w;
                      f (Mbuf.reader_of_bytes wire) w)
                in
                if Float.is_nan ns then 0. else ns
              in
              let ns_b = time "baseline" baseline in
              let ns_f = time "fused" fused in
              let sp = if ns_f > 0. then ns_b /. ns_f else 0. in
              Printf.printf
                "%-12s %-13s %9d %12.0f %10.0f %7.2fx %10d %9d\n"
                (sname ^ "->" ^ dname)
                op wlen ns_b ns_f sp borrowed copied;
              if sname = dname && payload = `Ints && bytes = 65536 then
                gate_rows :=
                  !gate_rows
                  @ [ (sname, sp, borrowed, copied, fallbacks, bytes) ];
              Buffer.add_string json
                (Printf.sprintf
                   "%s\n    { \"src\": %S, \"dst\": %S, \"op\": %S, \
                    \"bytes\": %d, \"wire_bytes\": %d, \"baseline_ns\": \
                    %.0f, \"fused_ns\": %.0f, \"speedup\": %.3f, \
                    \"borrowed_bytes\": %d, \"copied_bytes\": %d, \
                    \"fallback_fields\": %d, \"bswap_bytes\": %d, \
                    \"identical\": %b }"
                   (if !first then "" else ",")
                   sname dname op bytes wlen ns_b ns_f sp borrowed copied
                   fallbacks bswapped identical);
              first := false)
            sizes)
        payloads)
    pairs;
  Buffer.add_string json "\n  ]";
  (* -- the simulator round trip through the proxy topology ----------- *)
  let requests = if !smoke then 16 else 64 in
  let sim = Sim_core.create () in
  let gw =
    Rpc_gateway.create ~sim ~forward:fwd_on ~src:Encoding.cdr
      ~dst:Encoding.xdr ()
  in
  let pc = Paper_fixtures.bench_presc `Corba in
  let ms =
    Paper_fixtures.request_spec pc ~op:(Paper_fixtures.op_of_payload `Dirents)
  in
  Rpc_gateway.register gw ms ~iface:1 ~op:1;
  let vals = [| Paper_fixtures.payload `Dirents ~bytes:600 |] in
  let frame = Rpc_gateway.client_frame gw ms ~iface:1 ~op:1 ~seq:0 vals in
  let expect = Bytes.sub frame 16 (Bytes.length frame - 16) in
  let ok = ref 0 and mismatched = ref 0 in
  let conn =
    Rpc_gateway.connect gw ~deliver:(fun data ->
        List.iter
          (fun (status, _seq, pl) ->
            if status = Rpc_serve.Sok && Bytes.equal pl expect then incr ok
            else incr mismatched)
          (Rpc_serve.parse_replies data))
  in
  for seq = 0 to requests - 1 do
    let f = Bytes.copy frame in
    Bytes.set_int32_be f 12 (Int32.of_int seq);
    (* paced below the backend's service rate (150us fixed per request)
       so backpressure shedding — covered by the serve artifact — stays
       out of this byte-identity check *)
    Sim_core.schedule sim ~delay:(float_of_int seq *. 200e-6) (fun () ->
        Rpc_gateway.send conn f)
  done;
  Sim_core.run sim;
  let gst = Rpc_gateway.stats gw in
  Printf.printf
    "\ngateway round trip (cdr -> xdr, dirents 600B, %s relay): %d/%d \
     echoed byte-identically\n"
    (if fwd_on then "fused" else "materialize-fallback")
    !ok requests;
  check "gateway answers every request with the request's own bytes"
    (!ok = requests && !mismatched = 0);
  check "gateway relays without errors or leftovers"
    (gst.Rpc_gateway.gs_relay_errors = 0 && gst.Rpc_gateway.gs_pending = 0);
  (* -- the tentpole gates -------------------------------------------- *)
  if fwd_on then begin
    check "same-encoding 64KB ints gate rows present" (!gate_rows <> []);
    Printf.printf
      "\n64KB same-encoding ints gates (fused >= %.2fx, payload borrowed \
       not copied):\n"
      min_speedup;
    List.iter
      (fun (pair, sp, bor, cop, fb, bytes) ->
        let zero_copy = cop = 0 && fb = 0 && bor >= bytes - 64 in
        Printf.printf
          "  %-6s %5.2fx  borrowed %d  copied %d  fallbacks %d  %s\n" pair sp
          bor cop fb
          (if sp >= min_speedup && zero_copy then "pass" else "FAIL");
        check
          (Printf.sprintf "%s->%s: fused relay >= %.2fx baseline at 64KB"
             pair pair min_speedup)
          (sp >= min_speedup);
        check
          (Printf.sprintf
             "%s->%s: zero payload bytes copied above the borrow threshold"
             pair pair)
          zero_copy)
      !gate_rows
  end
  else
    print_endline
      "\nforward fusion disabled (--no-forward): gates not applied, parity \
       cells only";
  let gate_passed =
    (not fwd_on)
    || (!gate_rows <> []
       && List.for_all
            (fun (_, sp, bor, cop, fb, bytes) ->
              sp >= min_speedup && cop = 0 && fb = 0 && bor >= bytes - 64)
            !gate_rows)
  in
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"gate\": { \"op\": \"send_ints\", \"bytes\": 65536, \
        \"min_speedup\": %.2f, \"applied\": %b, \"rows\": [%s], \"passed\": \
        %b },\n\
       \  \"gateway_roundtrip\": { \"src\": \"cdr\", \"dst\": \"xdr\", \
        \"requests\": %d, \"ok\": %d, \"relay_errors\": %d, \"forward\": %b }"
       min_speedup fwd_on
       (String.concat ", "
          (List.map
             (fun (pair, sp, bor, cop, fb, _) ->
               Printf.sprintf
                 "{ \"encoding\": %S, \"speedup\": %.3f, \"borrowed_bytes\": \
                  %d, \"copied_bytes\": %d, \"fallback_fields\": %d }"
                 pair sp bor cop fb)
             !gate_rows))
       gate_passed requests !ok gst.Rpc_gateway.gs_relay_errors fwd_on);
  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !gateway_failed);
  (match Obs_json.parse (Buffer.contents json) with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "BENCH_6.json parses: %s" msg) false);
  let oc = open_out "BENCH_6.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !gateway_failed then
    print_endline "\ngateway: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall byte-identity, verifier, round-trip, throughput-gate, and \
       zero-copy checks passed";
  print_endline "wrote BENCH_6.json\n"

(* ------------------------------------------------------------------ *)
(* selfdesc - the value-dependent encodings (msgpack, cbor)             *)
(* ------------------------------------------------------------------ *)

(* The variable-header artifact: the paper's three workloads through
   the self-describing encodings added by the Put_varhead /
   D_get_varhead op class, both directions, at 4KB and 64KB.  Writes
   BENCH_7.json.  Every cell self-checks:
   - the encode and decode plans are clean under {!Plan_verify}
     (variable emits dominated by covering worst-case reservations);
   - the plan executor's bytes are identical to the naive
     walk-the-types engine's;
   - the executor's decode returns the input value ({!Value.equal}) and
     consumes the whole message — no worst-case slack may leak into
     the stream position.
   There is no speedup gate: these encodings trade throughput for
   self-description, so the artifact records absolute rates only. *)

let selfdesc_failed = ref false

let selfdesc () =
  print_endline "============================================================";
  print_endline " selfdesc - value-dependent wire formats (msgpack, cbor)";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      selfdesc_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let sizes = [ 4096; 65536 ] in
  let json = Buffer.create 4096 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"selfdesc\",\n  \"smoke\": %b,\n  \"rows\": ["
       !smoke);
  Printf.printf "\n%-8s %-13s %9s %12s %10s %10s %10s %9s %9s\n" "enc"
    "workload" "wire" "encode ns" "MB/s" "decode ns" "MB/s" "enc words"
    "dec words";
  let first = ref true in
  let pc = Paper_fixtures.bench_presc `Corba in
  List.iter
    (fun (ename, enc) ->
      List.iter
        (fun payload ->
          let op = Paper_fixtures.op_of_payload payload in
          let spec = Paper_fixtures.request_spec pc ~op in
          let mint = spec.Paper_fixtures.ms_mint
          and named = spec.Paper_fixtures.ms_named in
          List.iter
            (fun bytes ->
              let tag = Printf.sprintf "%s/%s/%dB" ename op bytes in
              let value = Paper_fixtures.payload payload ~bytes in
              let plan =
                Plan_cache.plan ~enc ~mint ~named spec.Paper_fixtures.ms_roots
              in
              let plan_ok =
                match Plan_verify.check_plan plan with
                | Ok () -> true
                | Error e ->
                    check
                      (tag ^ ": encode plan verifies: "
                      ^ Plan_verify.error_to_string e)
                      false;
                    false
              in
              let dplan =
                Plan_cache.dplan ~enc ~mint ~named
                  spec.Paper_fixtures.ms_droots
              in
              let dplan_ok =
                match Plan_verify.check_dplan dplan with
                | Ok () -> true
                | Error e ->
                    check
                      (tag ^ ": decode plan verifies: "
                      ^ Plan_verify.error_to_string e)
                      false;
                    false
              in
              (* -- byte identity across the engines ------------------ *)
              let enc0 = Stub_opt.encoder_of_plan ~enc plan in
              let buf0 = Mbuf.create (bytes + 8192) in
              enc0 buf0 [| value |];
              let wire = Mbuf.contents buf0 in
              let wlen = Bytes.length wire in
              let naive =
                Stub_naive.compile_encoder ~enc ~mint ~named
                  spec.Paper_fixtures.ms_roots
              in
              let bufn = Mbuf.create (bytes + 8192) in
              naive bufn [| value |];
              let identical = Bytes.equal wire (Mbuf.contents bufn) in
              check (tag ^ ": plan bytes identical to naive bytes") identical;
              (* -- decode: value equality, whole-message consumption - *)
              let dec0 = Stub_opt.decoder_of_dplan ~enc dplan in
              let r = Mbuf.reader_of_bytes wire in
              let decoded = (dec0 r).(0) in
              let decoded_equal = Value.equal decoded value in
              check (tag ^ ": decode returns the input value") decoded_equal;
              let consumed = Mbuf.remaining r = 0 in
              check
                (tag
               ^ ": decode consumes the whole message (no reservation slack \
                  on the wire)")
                consumed;
              (* -- rates --------------------------------------------- *)
              let time_encode () =
                let buf = Mbuf.create (bytes + 8192) in
                let ns =
                  measure_ns (tag ^ "/encode") (fun () ->
                      Mbuf.reset buf;
                      enc0 buf [| value |])
                in
                if Float.is_nan ns then 0. else ns
              in
              let time_decode () =
                let ns =
                  measure_ns (tag ^ "/decode") (fun () ->
                      ignore
                        (dec0 (Mbuf.reader_of_bytes wire) : Value.t array))
                in
                if Float.is_nan ns then 0. else ns
              in
              let ns_e = time_encode () in
              let ns_d = time_decode () in
              (* minor words per warmed-up call: heads are written in
                 place and parsed into native ints, so what is left is
                 the decoded value itself *)
              let words_per_call f =
                for _ = 1 to 10 do
                  f ()
                done;
                let before = Gc.minor_words () in
                for _ = 1 to 100 do
                  f ()
                done;
                (Gc.minor_words () -. before) /. 100.
              in
              let args = [| value |] in
              let wbuf = Mbuf.create (bytes + 8192) in
              let words_e =
                words_per_call (fun () ->
                    Mbuf.reset wbuf;
                    enc0 wbuf args)
              in
              let words_d =
                words_per_call (fun () ->
                    ignore (dec0 (Mbuf.reader_of_bytes wire) : Value.t array))
              in
              Printf.printf
                "%-8s %-13s %9d %12.0f %10.1f %10.0f %10.1f %9.0f %9.0f\n" ename
                op wlen ns_e (mbps wlen ns_e) ns_d (mbps wlen ns_d) words_e
                words_d;
              Buffer.add_string json
                (Printf.sprintf
                   "%s\n    { \"encoding\": %S, \"op\": %S, \"bytes\": %d, \
                    \"wire_bytes\": %d, \"encode_ns\": %.0f, \
                    \"decode_ns\": %.0f, \"encode_words\": %.1f, \
                    \"decode_words\": %.1f, \"identical\": %b, \
                    \"decoded_equal\": %b, \"consumed\": %b, \
                    \"plan_verified\": %b, \"dplan_verified\": %b }"
                   (if !first then "" else ",")
                   ename op bytes wlen ns_e ns_d words_e words_d identical
                   decoded_equal consumed plan_ok dplan_ok);
              first := false)
            sizes)
        [ `Ints; `Rects; `Dirents ])
    [ ("msgpack", Encoding.msgpack); ("cbor", Encoding.cbor) ];
  Buffer.add_string json "\n  ]";
  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !selfdesc_failed);
  (match Obs_json.parse (Buffer.contents json) with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "BENCH_7.json parses: %s" msg) false);
  let oc = open_out "BENCH_7.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !selfdesc_failed then
    print_endline "\nselfdesc: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall verifier, byte-identity, decode-equality, and consumption \
       checks passed";
  print_endline "wrote BENCH_7.json\n"

(* ------------------------------------------------------------------ *)
(* tail - request tracing, phase attribution, and the flight recorder  *)
(* ------------------------------------------------------------------ *)

(* The observability artifact: the request recorder ({!Obs_request})
   over the serve and gateway stacks.  Writes BENCH_8.json with:
   - the per-phase attribution matrix for the serve sweep: p50/p99 of
     each of the eight request phases plus each phase's share of total
     round-trip time, per connection count (shares must sum to 1 — the
     phases telescope exactly, so unattributed time is a bug);
   - reconciliation self-checks: a hand-rolled client records its own
     send/deliver instants with the recorder's rounding rule, and every
     completed record's eight phase durations must sum to the
     client-observed round trip to the exact nanosecond — on the direct
     server, and across both gateway hops stitched by trace id;
   - exemplar coverage: every populated phase histogram must retain a
     trace-id exemplar at its p99 bucket, so a tail report always names
     a concrete request (gated >= 0.9);
   - flight-recorder behavior under 1-in-8 head sampling: shed records
     always land in the ring, Ok records are sampled, the ring stays
     bounded;
   - the overhead gate: with the recorder merely disabled (the
     load-and-branch no-op path) workload throughput must sit within 3%
     of a run in a process state that never enabled it.  Time is
     virtual, so any difference at all means the recorder leaked
     virtual-time cost into the serve path.
   Any failure makes the whole run exit non-zero.
   [--smoke] shrinks the sweeps so CI runs in seconds. *)

let tail_failed = ref false

let tail () =
  print_endline "============================================================";
  print_endline " tail - request tracing, phase attribution, flight recorder";
  print_endline "============================================================";
  let check what ok =
    if not ok then begin
      tail_failed := true;
      Printf.printf "  SELF-CHECK FAILED: %s\n" what
    end
  in
  let obs_hist name =
    List.fold_left
      (fun acc s ->
        match s with Obs.Shist (n, v) when n = name -> Some v | _ -> acc)
      None (Obs.snapshot ())
  in
  let all_phases =
    [
      Obs_request.Ingress_wire; Obs_request.Header_parse;
      Obs_request.Queue_wait; Obs_request.Decode; Obs_request.Handler;
      Obs_request.Encode; Obs_request.Flush_wait; Obs_request.Egress_wire;
    ]
  in
  let requests_per_conn = if !smoke then 60 else 300 in
  let rps_point () =
    (Rpc_serve.run_workload ~requests_per_conn ~conns:32 ())
      .Rpc_serve.sp_rps
  in
  (* -- recorder-absent baseline --------------------------------------- *)
  (* Must run before this process first enables the recorder: this is
     the reference the disabled-recorder gate compares against. *)
  let rps_absent = rps_point () in

  (* -- phase attribution sweep, recorder on --------------------------- *)
  Obs_request.set_enabled true;
  Obs_request.configure ~sample_every:8 ();
  let json = Buffer.create 4096 in
  Buffer.add_string json
    (Printf.sprintf
       "{\n  \"artifact\": \"tail\",\n  \"smoke\": %b,\n\
       \  \"requests_per_conn\": %d,\n  \"sweep\": ["
       !smoke requests_per_conn);
  let first_point = ref true in
  List.iter
    (fun conns ->
      Obs_request.clear ();
      Obs_request.reset_metrics ();
      let p = Rpc_serve.run_workload ~requests_per_conn ~conns () in
      let tag = Printf.sprintf "%d conns" conns in
      match obs_hist "serve.phase.rtt_ns" with
      | None -> check (tag ^ ": rtt histogram registered") false
      | Some rtt ->
          check (tag ^ ": rtt histogram populated") (rtt.Obs.count > 0);
          let rows =
            List.map
              (fun ph ->
                let name = Obs_request.phase_name ph in
                match obs_hist (Printf.sprintf "serve.phase.%s_ns" name) with
                | None ->
                    check
                      (Printf.sprintf "%s: %s histogram registered" tag name)
                      false;
                    (name, None)
                | Some s -> (name, Some s))
              all_phases
          in
          Printf.printf
            "\n-- %d conns: %.0f rps, rtt p50 %.0f ns p99 %.0f ns --\n" conns
            p.Rpc_serve.sp_rps rtt.Obs.p50 rtt.Obs.p99;
          Printf.printf "  %-14s %12s %12s %8s\n" "phase" "p50_ns" "p99_ns"
            "share";
          let share_sum = ref 0. in
          let populated = ref 1 and with_exemplar = ref 0 in
          (match rtt.Obs.p99_exemplar with
          | Some _ -> incr with_exemplar
          | None -> ());
          let phase_json =
            String.concat ", "
              (List.filter_map
                 (fun (name, s) ->
                   match s with
                   | None -> None
                   | Some s ->
                       let share =
                         if rtt.Obs.sum > 0. then s.Obs.sum /. rtt.Obs.sum
                         else 0.
                       in
                       share_sum := !share_sum +. share;
                       if s.Obs.count > 0 then begin
                         incr populated;
                         match s.Obs.p99_exemplar with
                         | Some _ -> incr with_exemplar
                         | None -> ()
                       end;
                       Printf.printf "  %-14s %12.0f %12.0f %7.1f%%\n" name
                         s.Obs.p50 s.Obs.p99 (100. *. share);
                       Some
                         (Printf.sprintf
                            "{ \"phase\": %S, \"p50_ns\": %.0f, \"p99_ns\": \
                             %.0f, \"share\": %.4f }"
                            name s.Obs.p50 s.Obs.p99 share))
                 rows)
          in
          let coverage =
            float_of_int !with_exemplar /. float_of_int (max 1 !populated)
          in
          check
            (tag ^ ": phase shares sum to 1 (exact attribution)")
            (Float.abs (!share_sum -. 1.) < 1e-6);
          check
            (Printf.sprintf "%s: p99 exemplar coverage %.2f >= 0.9" tag
               coverage)
            (coverage >= 0.9);
          Buffer.add_string json
            (Printf.sprintf
               "%s\n    { \"conns\": %d, \"rps\": %.1f, \"ok\": %d, \
                \"requests\": %d, \"rtt_p50_ns\": %.0f, \"rtt_p99_ns\": \
                %.0f, \"share_sum\": %.6f, \"exemplar_coverage\": %.4f, \
                \"flight\": { \"sampled\": %d, \"dropped\": %d, \"ring\": \
                %d, \"capacity\": %d },\n\
               \      \"phases\": [ %s ] }"
               (if !first_point then "" else ",")
               conns p.Rpc_serve.sp_rps p.Rpc_serve.sp_ok
               p.Rpc_serve.sp_requests rtt.Obs.p50 rtt.Obs.p99 !share_sum
               coverage
               (Obs_request.sampled_count ())
               (Obs_request.dropped_count ())
               (List.length (Obs_request.ring_records ()))
               (Obs_request.ring_capacity ())
               phase_json);
          first_point := false;
          (* the 64-connection point overruns the budget, so shed
             records must have been force-pushed past head sampling *)
          if conns = 64 then begin
            check "64 conns: head sampling drops some Ok records"
              (Obs_request.dropped_count () > 0);
            check "64 conns: shed outcomes always land in the ring"
              (List.exists
                 (fun r -> Obs_request.outcome r = Obs_request.Rshed)
                 (Obs_request.ring_records ()));
            check "64 conns: flight ring stays bounded"
              (List.length (Obs_request.ring_records ())
              <= Obs_request.ring_capacity ())
          end)
    [ 1; 8; 32; 64 ];
  Buffer.add_string json "\n  ]";

  (* -- exact reconciliation: direct serve ----------------------------- *)
  Obs_request.configure ();
  let rec_checked = ref 0 and rec_failures = ref 0 in
  let conns = 8 and per_conn = if !smoke then 20 else 50 in
  let finished : (int * int, Obs_request.record) Hashtbl.t =
    Hashtbl.create 256
  in
  Obs_request.set_sink
    (Some
       (fun r ->
         Hashtbl.replace finished (Obs_request.conn r, Obs_request.seq r) r));
  let sim = Sim_core.create () in
  let server =
    Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim)
      ~egress:(Link.ethernet_100 ~sim) ()
  in
  let pc = Paper_fixtures.bench_presc `Rpcgen in
  let ms = Paper_fixtures.request_spec pc ~op:"send_ints" in
  let spec = Rpc_serve.echo_op ~iface:1 ~op:1 ~enc:Encoding.xdr ms in
  Rpc_serve.register server spec;
  let value = Paper_fixtures.payload `Ints ~bytes:1024 in
  for c = 0 to conns - 1 do
    let cid = ref (-1) in
    let send_ns : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let conn =
      Rpc_serve.connect server ~deliver:(fun data ->
          let now = Obs_request.ns_of_s (Sim_core.now sim) in
          List.iter
            (fun (status, seq, _payload) ->
              if status = Rpc_serve.Sok then begin
                let rtt = now - Hashtbl.find send_ns seq in
                incr rec_checked;
                match Hashtbl.find_opt finished (!cid, seq) with
                | Some r ->
                    if
                      not
                        (Obs_request.phase_total_ns r = rtt
                        && Obs_request.rtt_ns r = rtt)
                    then incr rec_failures
                | None -> incr rec_failures
              end)
            (Rpc_serve.parse_replies data))
    in
    cid := Rpc_serve.conn_id conn;
    for k = 0 to per_conn - 1 do
      Sim_core.schedule sim
        ~delay:
          ((float_of_int k *. 2e-3) +. (float_of_int c *. 160e-6))
        (fun () ->
          Hashtbl.replace send_ns k
            (Obs_request.ns_of_s (Sim_core.now sim));
          Rpc_serve.send conn (Rpc_serve.request_frame spec ~seq:k [| value |]))
    done
  done;
  Sim_core.run sim;
  Printf.printf
    "\nreconciliation, direct serve: %d/%d Ok requests, phase sums == \
     client RTT exactly: %s\n"
    !rec_checked (conns * per_conn)
    (if !rec_failures = 0 then "yes" else
       Printf.sprintf "NO (%d mismatches)" !rec_failures);
  check "direct serve: reconciliation covered the workload"
    (!rec_checked >= conns * per_conn * 9 / 10);
  check "direct serve: every phase sum equals the client RTT exactly"
    (!rec_failures = 0);
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"reconcile\": { \"requests\": %d, \"checked\": %d, \
        \"failures\": %d }"
       (conns * per_conn) !rec_checked !rec_failures);

  (* -- exact reconciliation: both gateway hops ------------------------ *)
  Obs_request.clear ();
  let by_trace : (int, Obs_request.record list) Hashtbl.t =
    Hashtbl.create 64
  in
  Obs_request.set_sink
    (Some
       (fun r ->
         let t = Obs_request.trace_id r in
         Hashtbl.replace by_trace t
           (r :: Option.value ~default:[] (Hashtbl.find_opt by_trace t))));
  let gw_requests = if !smoke then 8 else 32 in
  let sim = Sim_core.create () in
  let gw =
    Rpc_gateway.create ~sim ~src:Encoding.cdr ~dst:Encoding.xdr ()
  in
  let pcg = Paper_fixtures.bench_presc `Corba in
  let msg = Paper_fixtures.request_spec pcg ~op:"send_ints" in
  Rpc_gateway.register gw msg ~iface:1 ~op:1;
  let gvals = [| Paper_fixtures.payload `Ints ~bytes:1024 |] in
  let gsend_ns : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let client_rtt : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let gconn =
    Rpc_gateway.connect gw ~deliver:(fun data ->
        let now = Obs_request.ns_of_s (Sim_core.now sim) in
        List.iter
          (fun (status, seq, _payload) ->
            if status = Rpc_serve.Sok then
              Hashtbl.replace client_rtt seq (now - Hashtbl.find gsend_ns seq))
          (Rpc_serve.parse_replies data))
  in
  for seq = 0 to gw_requests - 1 do
    Sim_core.schedule sim ~delay:(float_of_int seq *. 2e-3) (fun () ->
        let f = Rpc_gateway.client_frame gw msg ~iface:1 ~op:1 ~seq gvals in
        Hashtbl.replace gsend_ns seq (Obs_request.ns_of_s (Sim_core.now sim));
        Rpc_gateway.send gconn f)
  done;
  Sim_core.run sim;
  let gw_checked = ref 0 and gw_failures = ref 0 in
  Hashtbl.iter
    (fun _t recs ->
      let hop0 = List.find_opt (fun r -> Obs_request.hop r = 0) recs in
      let hop1 = List.find_opt (fun r -> Obs_request.hop r = 1) recs in
      match (hop0, hop1) with
      | Some h0, Some h1 -> (
          match Hashtbl.find_opt client_rtt (Obs_request.seq h0) with
          | Some rtt ->
              incr gw_checked;
              if
                not
                  (Obs_request.phase_total_ns h0
                   + Obs_request.phase_total_ns h1
                   = rtt
                  && Obs_request.backend_ns h0
                     = Obs_request.phase_total_ns h1)
              then incr gw_failures
          | None -> incr gw_failures)
      | _ -> incr gw_failures)
    by_trace;
  Printf.printf
    "reconciliation, gateway (cdr -> xdr): %d/%d traces, hop0 + hop1 phase \
     sums == client RTT exactly: %s\n"
    !gw_checked gw_requests
    (if !gw_failures = 0 then "yes" else
       Printf.sprintf "NO (%d mismatches)" !gw_failures);
  check "gateway: every request produced both hop records"
    (!gw_checked = gw_requests);
  check "gateway: two-hop phase sums equal the client RTT exactly"
    (!gw_failures = 0);
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"gateway_reconcile\": { \"requests\": %d, \"checked\": %d, \
        \"failures\": %d }"
       gw_requests !gw_checked !gw_failures);

  (* -- overhead gate: disabled recorder must be free ------------------ *)
  Obs_request.set_sink None;
  Obs_request.clear ();
  let rps_on = rps_point () in
  Obs_request.set_enabled false;
  let rps_off = rps_point () in
  let max_overhead = 0.03 in
  let overhead_off = Float.abs (rps_off -. rps_absent) /. rps_absent in
  Printf.printf
    "\noverhead gate: %.0f rps recorder-absent, %.0f disabled (%.2f%% \
     apart, gate %.0f%%), %.0f enabled\n"
    rps_absent rps_off (100. *. overhead_off) (100. *. max_overhead) rps_on;
  check
    (Printf.sprintf
       "recorder-off throughput within %.0f%% of recorder-absent"
       (100. *. max_overhead))
    (overhead_off <= max_overhead);
  Buffer.add_string json
    (Printf.sprintf
       ",\n  \"overhead_gate\": { \"rps_absent\": %.1f, \"rps_off\": %.1f, \
        \"rps_on\": %.1f, \"overhead_off\": %.6f, \"max_overhead\": %.2f, \
        \"passed\": %b }"
       rps_absent rps_off rps_on overhead_off max_overhead
       (overhead_off <= max_overhead));
  Obs_request.clear ();
  Buffer.add_string json
    (Printf.sprintf ",\n  \"self_check_failed\": %b\n}\n" !tail_failed);
  (match Obs_json.parse (Buffer.contents json) with
  | Ok _ -> ()
  | Error msg -> check (Printf.sprintf "BENCH_8.json parses: %s" msg) false);
  let oc = open_out "BENCH_8.json" in
  Buffer.output_buffer oc json;
  close_out oc;
  if !tail_failed then
    print_endline "\ntail: SELF-CHECK FAILURES above; exiting non-zero"
  else
    print_endline
      "\nall attribution, reconciliation, exemplar, sampling, and \
       overhead checks passed";
  print_endline "wrote BENCH_8.json\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("ablations", ablations); ("planopt", planopt);
    ("sgwire", sgwire); ("decplan", decplan); ("tracematrix", tracematrix);
    ("serve", serve); ("executor", executor); ("gateway", gateway);
    ("selfdesc", selfdesc); ("tail", tail);
  ]

let () =
  let chosen = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--full" -> full := true
        | "--smoke" -> smoke := true
        | "--no-sg" ->
            (* ablation: disable scatter-gather borrowing everywhere,
               restoring the PR 1 contiguous-copy wire path *)
            Mbuf.set_sg_enabled false
        | "--no-views" ->
            (* ablation: skip the zero-copy decode cells in decplan *)
            no_views := true
        | "--no-forward" ->
            (* ablation: disable forward-plan fusion; the gateway
               artifact then measures the materialize fallback behind
               the same interface (its gates are recorded as skipped) *)
            Fplan_compile.set_enabled false
        | arg
          when String.length arg > 15
               && String.sub arg 0 15 = "--sg-threshold=" ->
            Mbuf.set_borrow_threshold
              (int_of_string (String.sub arg 15 (String.length arg - 15)))
        | "all" -> ()
        | name when List.mem_assoc name artifacts ->
            chosen := !chosen @ [ name ]
        | name ->
            Printf.eprintf
              "unknown artifact %S (expected: %s, all, --full, --smoke, \
               --no-sg, --no-views, --no-forward, --sg-threshold=N)\n"
              name
              (String.concat ", " (List.map fst artifacts));
            exit 1)
    Sys.argv;
  let to_run =
    match !chosen with [] -> List.map fst artifacts | names -> names
  in
  Printf.printf "Flick reproduction benchmarks (%s sizes; see EXPERIMENTS.md)\n\n"
    (if !full then "paper-scale" else "default");
  List.iter (fun name -> (List.assoc name artifacts) ()) to_run;
  if
    !planopt_failed || !sgwire_failed || !decplan_failed
    || !tracematrix_failed || !serve_failed || !executor_failed
    || !gateway_failed || !selfdesc_failed || !tail_failed
  then exit 1
