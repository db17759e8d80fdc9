(* CI validator for the benchmark artifact files.

   Parses every BENCH_*.json in the working directory with the repo's
   own JSON reader (Obs_json — the container ships no JSON library) and
   requires of each:
   - it parses as one JSON object;
   - it names its "artifact";
   - "self_check_failed" is present and false;
   - every other "*_failed" member (e.g. "tracematrix_failed", merged
     in by artifacts that share a file) is false;
   - the server-loop artifact ("serve", BENCH_4.json) additionally
     carries a structurally sound sweep: at least 4 points with
     strictly increasing connection counts, positive throughput
     everywhere, and shed rates inside [0, 1];
   - the executor artifact ("executor", BENCH_5.json) additionally
     carries its full measurement matrix (>= 9 rows, each with both
     per-side speedups present and positive) and a passed 64KB dirents
     encode gate with its pinned threshold keys intact;
   - the forward-relay artifact ("gateway", BENCH_6.json) additionally
     carries byte-identical measurement cells, a clean simulator round
     trip, and — whenever fusion was enabled — a passed throughput +
     zero-copy gate with its 1.5x threshold intact (a --no-forward run
     records the gate as not applied, which is accepted);
   - the value-dependent-encoding artifact ("selfdesc", BENCH_7.json)
     additionally carries its full {msgpack,cbor} x workload x size
     matrix (>= 12 rows), every cell byte-identical across engines,
     decoded back to an equal value with the whole message
     consumed, and both plans clean under the verifier;
   - the request-tracing artifact ("tail", BENCH_8.json) additionally
     carries a sweep whose phase shares sum to 1 with p99 exemplar
     coverage, exact phase-sum == client-RTT reconciliation records
     (direct and two-hop gateway, zero failures), and a passed
     disabled-recorder overhead gate at the pinned 3%.
   Exits non-zero on any violation, or when no artifact files exist at
   all — `make ci` runs the smoke benchmarks first, so an empty
   directory means they silently wrote nothing. *)

let failed = ref false

let err fmt =
  Printf.ksprintf
    (fun s ->
      failed := true;
      Printf.printf "check_bench: %s\n" s)
    fmt

let read_all path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The serve artifact feeds regression gating, so its shape is pinned
   here too: a malformed sweep must fail CI even if the benchmark's own
   self-checks were green. *)
let check_serve_sweep path j =
  match Obs_json.member "sweep" j with
  | None -> err "%s: serve artifact is missing its \"sweep\"" path
  | Some sweep -> (
      match Obs_json.to_list sweep with
      | None -> err "%s: \"sweep\" is not an array" path
      | Some points ->
          if List.length points < 4 then
            err "%s: sweep has %d points, want >= 4" path (List.length points);
          let last_conns = ref 0 in
          List.iteri
            (fun i p ->
              let num key =
                match Obs_json.member key p with
                | Some v -> Obs_json.to_float v
                | None -> None
              in
              match (num "conns", num "rps", num "shed_rate") with
              | Some conns, Some rps, Some shed ->
                  if int_of_float conns <= !last_conns then
                    err "%s: sweep[%d]: conns %.0f not increasing" path i conns;
                  last_conns := int_of_float conns;
                  if rps <= 0. then
                    err "%s: sweep[%d]: non-positive rps %.1f" path i rps;
                  if shed < 0. || shed > 1. then
                    err "%s: sweep[%d]: shed_rate %.4f outside [0,1]" path i
                      shed
              | _ ->
                  err "%s: sweep[%d]: missing conns/rps/shed_rate" path i)
            points)

(* The executor artifact carries the plan executor's speedup gate, so
   its shape is pinned: the gate keys and a full measurement matrix must
   be present and sound even when the benchmark's own checks were
   green. *)
let check_executor path j =
  let num obj key =
    match Obs_json.member key obj with
    | Some v -> Obs_json.to_float v
    | None -> None
  in
  (match Obs_json.member "rows" j with
  | None -> err "%s: executor artifact is missing its \"rows\"" path
  | Some rows -> (
      match Obs_json.to_list rows with
      | None -> err "%s: \"rows\" is not an array" path
      | Some rows ->
          (* 3 encodings x 3 workloads x >= 1 size, each row carrying
             both sides; the smoke run measures one size, --full two *)
          if List.length rows < 9 then
            err "%s: executor matrix has %d rows, want >= 9" path
              (List.length rows);
          List.iteri
            (fun i row ->
              match
                (num row "encode_speedup", num row "decode_speedup")
              with
              | Some e, Some d ->
                  if e <= 0. || d <= 0. then
                    err "%s: rows[%d]: non-positive speedup (%.3f, %.3f)"
                      path i e d
              | _ -> err "%s: rows[%d]: missing per-side speedups" path i)
            rows));
  match Obs_json.member "gate" j with
  | None -> err "%s: executor artifact is missing its \"gate\"" path
  | Some gate -> (
      (match (num gate "min_speedup", num gate "required_encodings") with
      | Some ms, Some req ->
          if ms < 6.0 then
            err "%s: gate min_speedup %.2f below the pinned 6.0" path ms;
          if int_of_float req < 2 then
            err "%s: gate required_encodings %.0f below the pinned 2" path req
      | _ -> err "%s: gate is missing min_speedup/required_encodings" path);
      match Obs_json.member "passed" gate with
      | Some (Obs_json.Bool true) -> ()
      | Some (Obs_json.Bool false) -> err "%s: speedup gate failed" path
      | _ -> err "%s: gate is missing \"passed\"" path)

(* The gateway artifact carries the forwarding tentpole's gates, so its
   shape is pinned: every measured cell must have relayed
   byte-identically, the simulator round trip must have answered every
   request, and when fusion was on the throughput/zero-copy gate must
   exist with its pinned threshold and have passed. *)
let check_gateway path j =
  let num obj key =
    match Obs_json.member key obj with
    | Some v -> Obs_json.to_float v
    | None -> None
  in
  (match Obs_json.member "rows" j with
  | None -> err "%s: gateway artifact is missing its \"rows\"" path
  | Some rows -> (
      match Obs_json.to_list rows with
      | None -> err "%s: \"rows\" is not an array" path
      | Some rows ->
          (* >= 3 encoding pairs x >= 1 workload x >= 1 size even in
             smoke mode *)
          if List.length rows < 3 then
            err "%s: gateway sweep has %d rows, want >= 3" path
              (List.length rows);
          List.iteri
            (fun i row ->
              (match Obs_json.member "identical" row with
              | Some (Obs_json.Bool true) -> ()
              | Some (Obs_json.Bool false) ->
                  err "%s: rows[%d]: relayed bytes differ from the baseline"
                    path i
              | _ -> err "%s: rows[%d]: missing \"identical\"" path i);
              match
                (num row "baseline_ns", num row "fused_ns",
                 num row "borrowed_bytes", num row "copied_bytes")
              with
              | Some b, Some f, Some bor, Some cop ->
                  if b <= 0. || f <= 0. then
                    err "%s: rows[%d]: non-positive timing (%.0f, %.0f)" path
                      i b f;
                  if bor < 0. || cop < 0. then
                    err "%s: rows[%d]: negative byte accounting" path i
              | _ ->
                  err "%s: rows[%d]: missing timing/accounting keys" path i)
            rows));
  (match Obs_json.member "gate" j with
  | None -> err "%s: gateway artifact is missing its \"gate\"" path
  | Some gate -> (
      (match num gate "min_speedup" with
      | Some ms ->
          if ms < 1.5 then
            err "%s: gate min_speedup %.2f below the pinned 1.5" path ms
      | None -> err "%s: gate is missing min_speedup" path);
      match (Obs_json.member "applied" gate, Obs_json.member "passed" gate) with
      | Some (Obs_json.Bool false), _ -> ()  (* --no-forward run *)
      | Some (Obs_json.Bool true), Some (Obs_json.Bool true) -> (
          match Obs_json.member "rows" gate with
          | Some rows -> (
              match Obs_json.to_list rows with
              | Some (_ :: _) -> ()
              | _ -> err "%s: applied gate carries no measurement rows" path)
          | None -> err "%s: applied gate carries no measurement rows" path)
      | Some (Obs_json.Bool true), Some (Obs_json.Bool false) ->
          err "%s: forwarding gate failed" path
      | _ -> err "%s: gate is missing \"applied\"/\"passed\"" path));
  match Obs_json.member "gateway_roundtrip" j with
  | None -> err "%s: gateway artifact is missing its round-trip record" path
  | Some rt -> (
      match (num rt "requests", num rt "ok", num rt "relay_errors") with
      | Some q, Some ok, Some e ->
          if ok <> q then
            err "%s: round trip answered %.0f of %.0f requests" path ok q;
          if e <> 0. then err "%s: round trip saw %.0f relay errors" path e
      | _ -> err "%s: round-trip record is missing its keys" path)

(* The selfdesc artifact carries the variable-header parity matrix: a
   cell that is not byte-identical, decodes unequal, or leaves
   reservation slack on the wire must fail CI even if the benchmark's
   own self-checks were green.  Every cell also records the minor words
   one encode and one decode call allocate. *)
let check_selfdesc path j =
  let num obj key =
    match Obs_json.member key obj with
    | Some v -> Obs_json.to_float v
    | None -> None
  in
  match Obs_json.member "rows" j with
  | None -> err "%s: selfdesc artifact is missing its \"rows\"" path
  | Some rows -> (
      match Obs_json.to_list rows with
      | None -> err "%s: \"rows\" is not an array" path
      | Some rows ->
          (* 2 encodings x 3 workloads x 2 sizes in every mode *)
          if List.length rows < 12 then
            err "%s: selfdesc matrix has %d rows, want >= 12" path
              (List.length rows);
          List.iteri
            (fun i row ->
              List.iter
                (fun key ->
                  match Obs_json.member key row with
                  | Some (Obs_json.Bool true) -> ()
                  | Some (Obs_json.Bool false) ->
                      err "%s: rows[%d]: %s is false" path i key
                  | _ -> err "%s: rows[%d]: missing %S" path i key)
                [
                  "identical"; "decoded_equal"; "consumed"; "plan_verified";
                  "dplan_verified";
                ];
              (match (num row "encode_ns", num row "decode_ns") with
              | Some e, Some d ->
                  if e <= 0. || d <= 0. then
                    err "%s: rows[%d]: non-positive timing (%.0f, %.0f)" path
                      i e d
              | _ -> err "%s: rows[%d]: missing timing keys" path i);
              match (num row "encode_words", num row "decode_words") with
              | Some e, Some d ->
                  if e < 0. || d < 0. then
                    err "%s: rows[%d]: negative allocation (%.1f, %.1f)" path
                      i e d
              | _ -> err "%s: rows[%d]: missing allocation keys" path i)
            rows)

(* The tail artifact carries the tracing tentpole's reconciliation and
   overhead gates, so its shape is pinned: every sweep point must
   attribute all of its round-trip time to phases (shares summing to 1)
   with exemplar coverage, the phase sums must have reconciled exactly
   against the client's own clock on both the direct and the two-hop
   gateway topology, and the disabled recorder must have cost nothing. *)
let check_tail path j =
  let num obj key =
    match Obs_json.member key obj with
    | Some v -> Obs_json.to_float v
    | None -> None
  in
  (match Obs_json.member "sweep" j with
  | None -> err "%s: tail artifact is missing its \"sweep\"" path
  | Some sweep -> (
      match Obs_json.to_list sweep with
      | None -> err "%s: \"sweep\" is not an array" path
      | Some points ->
          if List.length points < 4 then
            err "%s: sweep has %d points, want >= 4" path (List.length points);
          let last_conns = ref 0 in
          List.iteri
            (fun i p ->
              (match (num p "conns", num p "rps") with
              | Some conns, Some rps ->
                  if int_of_float conns <= !last_conns then
                    err "%s: sweep[%d]: conns %.0f not increasing" path i conns;
                  last_conns := int_of_float conns;
                  if rps <= 0. then
                    err "%s: sweep[%d]: non-positive rps %.1f" path i rps
              | _ -> err "%s: sweep[%d]: missing conns/rps" path i);
              (match num p "share_sum" with
              | Some s ->
                  if Float.abs (s -. 1.) > 0.01 then
                    err
                      "%s: sweep[%d]: phase shares sum to %.4f, want 1 \
                       (unattributed time)"
                      path i s
              | None -> err "%s: sweep[%d]: missing share_sum" path i);
              (match num p "exemplar_coverage" with
              | Some c ->
                  if c < 0.9 then
                    err "%s: sweep[%d]: exemplar coverage %.2f below 0.9"
                      path i c
              | None -> err "%s: sweep[%d]: missing exemplar_coverage" path i);
              match Obs_json.member "phases" p with
              | None -> err "%s: sweep[%d]: missing \"phases\"" path i
              | Some phases -> (
                  match Obs_json.to_list phases with
                  | Some rows when List.length rows = 8 ->
                      List.iteri
                        (fun k row ->
                          match num row "share" with
                          | Some s ->
                              if s < 0. || s > 1. then
                                err
                                  "%s: sweep[%d].phases[%d]: share %.4f \
                                   outside [0,1]"
                                  path i k s
                          | None ->
                              err "%s: sweep[%d].phases[%d]: missing share"
                                path i k)
                        rows
                  | Some rows ->
                      err "%s: sweep[%d]: %d phase rows, want 8" path i
                        (List.length rows)
                  | None -> err "%s: sweep[%d]: \"phases\" not an array" path i))
            points));
  let reconcile key =
    match Obs_json.member key j with
    | None -> err "%s: tail artifact is missing %S" path key
    | Some r -> (
        match (num r "checked", num r "failures") with
        | Some c, Some f ->
            if c <= 0. then
              err "%s: %s checked nothing (%.0f records)" path key c;
            if f <> 0. then
              err "%s: %s: %.0f phase sums did not reconcile exactly" path
                key f
        | _ -> err "%s: %s is missing checked/failures" path key)
  in
  reconcile "reconcile";
  reconcile "gateway_reconcile";
  match Obs_json.member "overhead_gate" j with
  | None -> err "%s: tail artifact is missing its \"overhead_gate\"" path
  | Some gate -> (
      (match num gate "max_overhead" with
      | Some m ->
          if m > 0.03 then
            err "%s: overhead gate loosened to %.2f (pinned 0.03)" path m
      | None -> err "%s: overhead gate is missing max_overhead" path);
      (match (num gate "overhead_off", num gate "max_overhead") with
      | Some o, Some m ->
          if o > m then
            err "%s: disabled-recorder overhead %.4f exceeds %.2f" path o m
      | _ -> ());
      match Obs_json.member "passed" gate with
      | Some (Obs_json.Bool true) -> ()
      | Some (Obs_json.Bool false) -> err "%s: overhead gate failed" path
      | _ -> err "%s: overhead gate is missing \"passed\"" path)

let check_file path =
  match Obs_json.parse (read_all path) with
  | Error msg -> err "%s: invalid JSON: %s" path msg
  | Ok (Obs_json.Obj members as j) ->
      (match Obs_json.member "artifact" j with
      | Some (Obs_json.Str name) ->
          Printf.printf "%s: artifact %S" path name;
          if name = "serve" then check_serve_sweep path j;
          if name = "executor" then check_executor path j;
          if name = "gateway" then check_gateway path j;
          if name = "selfdesc" then check_selfdesc path j;
          if name = "tail" then check_tail path j
      | _ -> err "%s: missing \"artifact\" name" path);
      (match Obs_json.member "self_check_failed" j with
      | Some (Obs_json.Bool false) -> ()
      | Some (Obs_json.Bool true) -> err "%s: self_check_failed is true" path
      | _ -> err "%s: missing \"self_check_failed\"" path);
      List.iter
        (fun (key, v) ->
          let n = String.length key in
          if
            n > 7
            && String.sub key (n - 7) 7 = "_failed"
            && key <> "self_check_failed"
          then
            match v with
            | Obs_json.Bool false -> ()
            | Obs_json.Bool true -> err "%s: %s is true" path key
            | _ -> err "%s: %s is not a boolean" path key)
        members;
      if not !failed then Printf.printf ", self-checks clean\n"
      else print_newline ()
  | Ok _ -> err "%s: top level is not a JSON object" path

let () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    print_endline "check_bench: no BENCH_*.json artifact files found";
    exit 1
  end;
  List.iter check_file files;
  if !failed then exit 1;
  Printf.printf "check_bench: %d artifact file(s) OK\n" (List.length files)
