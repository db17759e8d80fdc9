(* Self-test of the benchmark's own arithmetic and result format: the
   percentile, per-request normalisation, the metric-name grammar, and a
   result line that parses back as the JSON the contract asks for. *)

open Benchstat

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "selftest: FAIL %s\n" what
  end

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100" (percentile hundred 0.5 = 50.);
  check "p99 of 1..100" (percentile hundred 0.99 = 99.);
  check "p100 of 1..100" (percentile hundred 1.0 = 100.);
  check "p1 of 1..100" (percentile hundred 0.01 = 1.);
  check "one beyond p99 of 1..100" (beyond hundred 0.99 = 1);
  let thousand = Array.init 1000 float_of_int in
  check "ten beyond p99 of 1000" (beyond thousand 0.99 = 10);
  check "p99 of one sample" (percentile [| 7. |] 0.99 = 7.);
  check "p50 of 1..3" (percentile [| 1.; 2.; 3. |] 0.5 = 2.);
  check "ties are not beyond" (beyond [| 1.; 2.; 2.; 2. |] 0.5 = 0);
  check "percentile of nothing raises" (raises (fun () -> percentile [||] 0.5));
  check "p = 0 raises" (raises (fun () -> percentile hundred 0.));
  check "median odd" (median [| 3.; 1.; 2. |] = 2.);
  check "median even" (median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median leaves input unsorted"
    (let a = [| 3.; 1.; 2. |] in
     ignore (median a);
     a = [| 3.; 1.; 2. |]);
  check "median of nothing raises" (raises (fun () -> median [||]));
  check "per_req" (per_req 1000. ~requests:8 = 125.);
  check "per_kreq" (per_kreq 3. ~requests:1500 = 2.);
  check "per_req of zero requests raises"
    (raises (fun () -> per_req 1. ~requests:0));
  List.iter
    (fun n -> check ("name accepted: " ^ n) (valid_name n))
    [ "rps"; "lat_p99_us"; "serve.loop_self_ns"; "9lives"; "a-b";
      String.make 64 'x' ];
  List.iter
    (fun n -> check ("name rejected: " ^ n) (not (valid_name n)))
    [ ""; "_rps"; ".rps"; "-rps"; "lat p99"; "rps/s"; "µs";
      String.make 65 'x' ];
  List.iter
    (fun u -> check ("unit accepted: " ^ u) (valid_unit u))
    [ "ms"; "s"; "1/s"; "req/s"; "count"; "%"; "MB"; String.make 16 'w' ];
  List.iter
    (fun u -> check ("unit rejected: " ^ u) (not (valid_unit u)))
    [ ""; "µs"; "req per s"; String.make 17 'w' ];
  check "non-finite value rejected"
    (raises (fun () -> json_number Float.nan));
  check "duplicate metric rejected"
    (raises (fun () ->
         result_line ~correct:true ~attempted:1 ~failed:0
           [ { m_name = "a"; m_value = 1.; m_unit = "s" };
             { m_name = "a"; m_value = 2.; m_unit = "s" } ]));
  let line =
    result_line ~correct:true ~attempted:1000 ~failed:0
      [ { m_name = "lat_p50_us"; m_value = 1.2034; m_unit = "us" };
        { m_name = "setup_s"; m_value = 0.1 +. 0.2; m_unit = "s" } ]
  in
  (match Obs_json.parse line with
  | Error e -> check ("result line parses: " ^ e) false
  | Ok j ->
      let num path =
        List.fold_left
          (fun acc k -> Option.bind acc (Obs_json.member k))
          (Some j) path
        |> Fun.flip Option.bind Obs_json.to_float
      in
      check "exact top-level keys"
        (match j with
        | Obs_json.Obj kvs ->
            List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
        | _ -> false);
      check "attempted round-trips" (num [ "attempted" ] = Some 1000.);
      check "value keeps all its digits"
        (num [ "metrics"; "setup_s"; "value" ] = Some (0.1 +. 0.2));
      check "unit round-trips"
        (Option.bind
           (Option.bind (Obs_json.member "metrics" j) (Obs_json.member "lat_p50_us"))
           (Obs_json.member "unit")
        |> Fun.flip Option.bind Obs_json.to_string
        = Some "us"));
  if !failures > 0 then exit 1;
  print_endline "rpcbench selftest: ok"
