open Rapida_rdf

type t = { subject : Term.t; triples : Triple.t list; mutable size : int }

(* [size] is -1 until [size_bytes] first reads it. Computing it here
   instead would price every intermediate triplegroup a pushed filter
   builds, and nothing ever asks for most of those sizes. *)
let make subject triples = { subject; triples; size = -1 }

let props tg =
  List.map (fun (t : Triple.t) -> t.p) tg.triples
  |> List.sort_uniq Term.compare

let has_prop tg p =
  List.exists (fun (t : Triple.t) -> Term.equal t.p p) tg.triples

let objects_of tg p =
  List.filter_map
    (fun (t : Triple.t) -> if Term.equal t.p p then Some t.o else None)
    tg.triples

let project tg keep =
  make tg.subject
    (List.filter
       (fun (t : Triple.t) -> List.exists (Term.equal t.p) keep)
       tg.triples)

let union a b =
  if not (Term.equal a.subject b.subject) then
    invalid_arg "Triplegroup.union: different subjects"
  else
    let extra =
      List.filter
        (fun t -> not (List.exists (Triple.equal t) a.triples))
        b.triples
    in
    make a.subject (a.triples @ extra)

let of_graph g =
  Graph.fold_subject_groups g (fun s triples acc -> make s triples :: acc) []

let size_bytes tg =
  if tg.size < 0 then
    tg.size <-
      List.fold_left (fun acc t -> acc + Triple.size_bytes t) 4 tg.triples;
  tg.size

let compare a b =
  let c = Term.compare a.subject b.subject in
  if c <> 0 then c
  else
    List.compare Triple.compare
      (List.sort Triple.compare a.triples)
      (List.sort Triple.compare b.triples)

let equal a b = compare a b = 0

let pp ppf tg =
  Fmt.pf ppf "@[<v 2>tg(%a):@ %a@]" Term.pp tg.subject
    (Fmt.list ~sep:Fmt.cut Triple.pp)
    tg.triples
