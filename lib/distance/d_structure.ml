let distance a b =
  Jaccard.distance ~compare:Feature.compare (Feature.of_query a) (Feature.of_query b)
