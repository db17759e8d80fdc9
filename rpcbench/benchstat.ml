(* The benchmark's arithmetic and its result format, kept apart from the
   runner so the self-test can pin them without running a workload. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Benchstat.percentile: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Benchstat.percentile: p";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p] percentile: the tail a percentile is
   estimated from, which must hold at least ten samples for it to mean
   anything. *)
let beyond sorted p =
  let v = percentile sorted p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

let median values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Benchstat.median: no samples";
  let a = Array.copy values in
  Array.sort Float.compare a;
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-request normalisation: a total over a phase divided by the
   requests that phase completed.  A phase that completed nothing has
   no per-request figure, and reporting 0 would read as free work. *)
let per_req total ~requests =
  if requests <= 0 then invalid_arg "Benchstat.per_req: no requests";
  total /. float_of_int requests

let per_kreq total ~requests = 1000. *. per_req total ~requests

(* The metric grammar BENCHMARK.json declares: a name starts with a
   letter or digit and has at most 64 of [A-Za-z0-9_.-]; a unit has 1
   to 16 of [A-Za-z0-9_/%.-]. *)
let alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type metric = { m_name : string; m_value : float; m_unit : string }

let json_number f =
  if not (Float.is_finite f) then
    invalid_arg "Benchstat.json_number: non-finite value";
  Printf.sprintf "%.17g" f

(* The one-line result object: exactly correct/attempted/failed/metrics,
   every value with all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if not (valid_name m.m_name && valid_unit m.m_unit) then
        invalid_arg ("Benchstat.result_line: bad metric " ^ m.m_name);
      if Hashtbl.mem seen m.m_name then
        invalid_arg ("Benchstat.result_line: duplicate metric " ^ m.m_name);
      Hashtbl.add seen m.m_name ())
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
